#include "src/fault/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/aging/scenario.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/exec/thread_pool.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/stats_codec.hpp"
#include "src/sim/corner_sim.hpp"
#include "src/workload/patterns.hpp"
#include "tests/killed_store.hpp"
#include "tests/temp_dir.hpp"

namespace agingsim {
namespace {

// Acceptance suite for the fault-injection campaign (ISSUE: 16x16
// column-bypassing multiplier; in-window delay faults detected at >= 99%
// coverage, out-of-window faults produce nonzero SDC, and the AHL
// error-storm fallback engages and recovers).
class FaultCampaignTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mult_ = new MultiplierNetlist(build_column_bypass_multiplier(16));
    tech_ = new TechLibrary(default_tech_library());
    Rng rng(0xC0FFEE);
    patterns_ =
        new std::vector<OperandPattern>(uniform_patterns(rng, 16, 500));
    clean_trace_ =
        new std::vector<OpTrace>(compute_op_trace(*mult_, *tech_, *patterns_));
    crit_ = critical_path_ps(*mult_, *tech_);
  }
  static void TearDownTestSuite() {
    delete mult_;
    delete tech_;
    delete patterns_;
    delete clean_trace_;
    mult_ = nullptr;
  }

  // The bench's system point: skip-7 judging, a 5 ps metastability window
  // (non-ideal Razor) and a period at 58% of the fresh critical path.
  static VlSystemConfig system_config() {
    VlSystemConfig c;
    c.period_ps = 0.58 * crit_;
    c.ahl.width = 16;
    c.ahl.skip = 7;
    c.razor.metastability_window_ps = 5.0;
    c.razor.edge_escape_prob = 0.5;
    return c;
  }

  static FaultCampaignConfig campaign_config(FaultKind kind, int sites,
                                             double factor) {
    FaultCampaignConfig c;
    c.kind = kind;
    c.trials = 12;
    c.sites_per_trial = sites;
    c.delay_factor = factor;
    c.seed = 0xFA17;
    return c;
  }

  static MultiplierNetlist* mult_;
  static TechLibrary* tech_;
  static std::vector<OperandPattern>* patterns_;
  static std::vector<OpTrace>* clean_trace_;
  static double crit_;
};

MultiplierNetlist* FaultCampaignTest::mult_ = nullptr;
TechLibrary* FaultCampaignTest::tech_ = nullptr;
std::vector<OperandPattern>* FaultCampaignTest::patterns_ = nullptr;
std::vector<OpTrace>* FaultCampaignTest::clean_trace_ = nullptr;
double FaultCampaignTest::crit_ = 0.0;

TEST_F(FaultCampaignTest, ConfigValidation) {
  FaultCampaignConfig bad = campaign_config(FaultKind::kStuckAt0, 1, 1.0);
  bad.trials = 0;
  EXPECT_THROW(FaultCampaign(*mult_, *tech_, system_config(), bad),
               std::invalid_argument);
  bad = campaign_config(FaultKind::kStuckAt0, 0, 1.0);
  EXPECT_THROW(FaultCampaign(*mult_, *tech_, system_config(), bad),
               std::invalid_argument);
  bad = campaign_config(FaultKind::kDelayOutlier, 1, 0.0);
  EXPECT_THROW(FaultCampaign(*mult_, *tech_, system_config(), bad),
               std::invalid_argument);
}

TEST_F(FaultCampaignTest, InWindowDelayFaultsAreCoveredAtNinetyNinePercent) {
  // Deterministic worst case first: a delay-outlier cluster every op's path
  // crosses, with the period at the soundness floor (half the worst faulty
  // delay) so the violation rate is substantial. Razor must detect >= 99%
  // of the violations; the only escape channel is the 5 ps metastability
  // sliver, and nothing may settle past the shadow window.
  const FaultOverlay cone = output_cone_delay_overlay(mult_->netlist, 8.0);
  const auto faulty = compute_op_trace(*mult_, *tech_, *patterns_,
                                       TraceOptions{.faults = &cone});
  VlSystemConfig cfg = system_config();
  cfg.period_ps = std::max(cfg.period_ps, 0.5 * max_delay_ps(faulty));
  VariableLatencySystem sys(*mult_, *tech_, cfg);
  const RunStats s = sys.run(faulty);
  ASSERT_GT(s.errors, 0u) << "premise: the cluster must cause violations";
  EXPECT_EQ(s.undetected, 0u);
  const double coverage =
      static_cast<double>(s.errors) /
      static_cast<double>(s.errors + s.razor_escapes + s.undetected);
  EXPECT_GE(coverage, 0.99);
  // Delay faults never corrupt values on their own: every committed wrong
  // word must be an escaped or uncovered violation.
  EXPECT_EQ(s.sdc_ops, s.razor_escapes + s.undetected);

  // Randomized campaign at the same point: moderate outliers stay inside
  // the shadow window, so coverage holds and nothing is silently corrupted.
  FaultCampaign campaign(*mult_, *tech_, cfg,
                         campaign_config(FaultKind::kDelayOutlier, 3, 8.0));
  const FaultCampaignStats stats = campaign.run(*patterns_);
  EXPECT_GE(stats.detection_coverage, 0.99);
  EXPECT_EQ(stats.uncovered_violations, 0u);
  EXPECT_EQ(stats.sdc_ops, stats.escaped_violations);
  EXPECT_GE(stats.avg_cycles_faulty, stats.avg_cycles_baseline);
  EXPECT_GE(stats.throughput_degradation, 0.0);
}

TEST_F(FaultCampaignTest, OutOfWindowDelayFaultsProduceSilentCorruption) {
  // A 60x outlier on the output cone pushes every one-cycle violation past
  // the shadow window: the shadow latch itself is wrong, Razor cannot help,
  // and wrong products are committed (the architecture's honest limit).
  const FaultOverlay cone = output_cone_delay_overlay(mult_->netlist, 60.0);
  const auto faulty = compute_op_trace(*mult_, *tech_, *patterns_,
                                       TraceOptions{.faults = &cone});
  VariableLatencySystem sys(*mult_, *tech_, system_config());
  const RunStats s = sys.run(faulty);
  EXPECT_GT(s.undetected, 0u);
  EXPECT_GT(s.sdc_ops, 0u);
  EXPECT_EQ(s.sdc_ops, s.razor_escapes + s.undetected);
  EXPECT_GT(s.sdc_per_10k_ops, 0.0);
}

TEST_F(FaultCampaignTest, StuckAtFaultsEscapeRazorEntirely) {
  // Stuck-at faults are timing-invisible: whatever the judging logic does
  // not mask is committed as SDC, and some ops mask the fault outright.
  FaultCampaign campaign(*mult_, *tech_, system_config(),
                         campaign_config(FaultKind::kStuckAt0, 1, 1.0));
  const FaultCampaignStats stats = campaign.run(*patterns_);
  EXPECT_EQ(stats.trials, 12u);
  EXPECT_EQ(stats.faults_injected, 12u);
  EXPECT_GT(stats.sdc_ops, 0u);
  EXPECT_GT(stats.masked_faults, 0u);
  EXPECT_GT(stats.sdc_per_10k_ops, 0.0);
  EXPECT_GT(stats.trials_with_sdc, 0u);
}

TEST_F(FaultCampaignTest, TransientsTouchExactlyOneOperation) {
  FaultCampaign campaign(*mult_, *tech_, system_config(),
                         campaign_config(FaultKind::kTransient, 4, 1.0));
  const FaultCampaignStats stats = campaign.run(*patterns_);
  // Each strike lands on exactly one op: it is either masked (flip does not
  // reach a product bit / judging covers it) or corrupts that op.
  EXPECT_GT(stats.sdc_ops + stats.masked_faults, 0u);
  EXPECT_LE(stats.sdc_ops, stats.faults_injected);
  // A one-cycle strike cannot corrupt more than a sliver of the stream.
  EXPECT_LT(stats.sdc_per_10k_ops, 1000.0);
}

TEST_F(FaultCampaignTest, ErrorStormFallbackEngagesAndRecovers) {
  // First half of the stream: a 20x delay-outlier cluster on the output
  // cone (error storm); second half: healthy silicon. The graceful-
  // degradation fallback must engage during the storm, cut the error count,
  // and recover once the storm subsides.
  const FaultOverlay cone = output_cone_delay_overlay(mult_->netlist, 20.0);
  const auto faulty = compute_op_trace(*mult_, *tech_, *patterns_,
                                       TraceOptions{.faults = &cone});
  std::vector<OpTrace> stream = faulty;
  stream.insert(stream.end(), clean_trace_->begin(), clean_trace_->end());

  VlSystemConfig cfg = system_config();
  cfg.period_ps = 0.5 * max_delay_ps(stream);
  cfg.ahl.storm_fallback = true;
  cfg.ahl.storm_error_threshold = 0.20;
  VariableLatencySystem with_fallback(*mult_, *tech_, cfg);
  const RunStats on = with_fallback.run(stream);

  VlSystemConfig off_cfg = cfg;
  off_cfg.ahl.storm_fallback = false;
  VariableLatencySystem without_fallback(*mult_, *tech_, off_cfg);
  const RunStats off = without_fallback.run(stream);

  EXPECT_GE(on.storm_engagements, 1u);
  EXPECT_GE(on.storm_recoveries, 1u);
  EXPECT_EQ(on.storm_engagements, on.storm_recoveries)
      << "the fallback must be disengaged by the end of the clean segment";
  EXPECT_GT(on.storm_ops, 0u);
  EXPECT_LT(on.errors, off.errors);
  EXPECT_EQ(on.undetected, 0u);
  EXPECT_EQ(on.sdc_ops, on.razor_escapes);
  // Two-cycle issue bounds the fallback's throughput cost.
  EXPECT_LE(on.avg_cycles, 2.0 + 1e-9);
  EXPECT_EQ(off.storm_engagements, 0u);
  EXPECT_EQ(off.storm_ops, 0u);
}

TEST_F(FaultCampaignTest, CampaignsAreDeterministic) {
  // Same seed + same campaign => byte-identical traces and identical stats.
  const FaultCampaignConfig cc =
      campaign_config(FaultKind::kDelayOutlier, 2, 8.0);
  FaultCampaign campaign(*mult_, *tech_, system_config(), cc);

  Rng rng_a(cc.seed), rng_b(cc.seed);
  const FaultOverlay overlay_a =
      campaign.sample_overlay(rng_a, patterns_->size());
  const FaultOverlay overlay_b =
      campaign.sample_overlay(rng_b, patterns_->size());
  ASSERT_EQ(overlay_a.num_faults(), overlay_b.num_faults());
  for (std::size_t i = 0; i < overlay_a.faults().size(); ++i) {
    EXPECT_EQ(overlay_a.faults()[i].gate, overlay_b.faults()[i].gate);
    EXPECT_EQ(overlay_a.faults()[i].cycle, overlay_b.faults()[i].cycle);
  }

  const auto trace_a = compute_op_trace(*mult_, *tech_, *patterns_,
                                        TraceOptions{.faults = &overlay_a});
  const auto trace_b = compute_op_trace(*mult_, *tech_, *patterns_,
                                        TraceOptions{.faults = &overlay_b});
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i], trace_b[i]) << "op " << i;
  }

  const FaultCampaignStats s1 = campaign.run(*patterns_);
  const FaultCampaignStats s2 = campaign.run(*patterns_);
  EXPECT_EQ(s1.detected_violations, s2.detected_violations);
  EXPECT_EQ(s1.escaped_violations, s2.escaped_violations);
  EXPECT_EQ(s1.uncovered_violations, s2.uncovered_violations);
  EXPECT_EQ(s1.sdc_ops, s2.sdc_ops);
  EXPECT_EQ(s1.masked_faults, s2.masked_faults);
  EXPECT_DOUBLE_EQ(s1.avg_cycles_faulty, s2.avg_cycles_faulty);
}

// Trial lanes (docs/PERF.md "Fault-campaign trial lanes"): under the batch
// kernel, delay-outlier trials are scored kCornerLanes per corner sweep
// over one shared fault-free trace. They must reproduce the per-trial
// reference kernels exactly: the statistics and every unit's payload.
namespace fs = std::filesystem;

struct StoredRun {
  FaultCampaignStats stats;
  std::vector<std::string> payloads;  ///< per unit, read back from the store
  runtime::RunReport report;
};

/// Runs `campaign` under a RobustRunner persisting to `dir`; units already
/// in `dir` are restored.
StoredRun run_stored(const FaultCampaign& campaign,
                     std::span<const OperandPattern> patterns,
                     CampaignRunOptions options, const fs::path& dir,
                     runtime::RunnerConfig rc = {}) {
  runtime::CheckpointStore store(
      dir, campaign.config_digest(patterns, options.gate_delay_scale,
                                  options.mean_dvth_v));
  store.load();
  rc.checkpoints = &store;
  runtime::RobustRunner runner(rc);
  StoredRun out;
  options.runner = &runner;
  options.report = &out.report;
  out.stats = campaign.run(patterns, options);
  for (int u = 0; u <= campaign.config().trials; ++u) {
    out.payloads.push_back(
        store.restore(static_cast<std::uint64_t>(u)).value_or(""));
  }
  return out;
}

struct LaneCase {
  bool aged;
  int sites;
  double factor;  ///< 8 stays inside the shadow window, 40 leaves it
  bool storm;
};

/// Parameter: the trial count — one lane, a group short of full, exactly
/// full, one past full (two groups), and four groups.
class TrialLaneTest : public FaultCampaignTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(TrialLaneTest, LanesMatchTheReferenceKernelsExactly) {
  const int trials = GetParam();
  const AgingScenario scenario(mult_->netlist, *tech_,
                               BtiModel::calibrated(*tech_), 0x7EA2, 1000);
  const std::vector<double> aged = scenario.delay_scales_at(7.0);
  const double dvth = scenario.mean_dvth_at(7.0);
  // Four 40-op indicator windows, so a storm can engage and recover.
  const std::span<const OperandPattern> ops(patterns_->data(), 160);
  const fs::path dir = temp_path("trial_lanes_" + std::to_string(trials));

  std::uint64_t uncovered = 0, escaped = 0, storms = 0;
  for (const LaneCase c : {LaneCase{false, 1, 8.0, false},
                           LaneCase{true, 3, 8.0, true},
                           LaneCase{false, 3, 40.0, false},
                           LaneCase{true, 1, 40.0, true}}) {
    SCOPED_TRACE(testing::Message()
                 << (c.aged ? "aged" : "fresh")
                 << ", sites " << c.sites << ", factor " << c.factor
                 << (c.storm ? ", storm fallback" : ""));
    VlSystemConfig cfg = system_config();  // 5 ps metastability window
    cfg.ahl.indicator.window_ops = 40;
    cfg.ahl.storm_fallback = c.storm;
    cfg.ahl.storm_error_threshold = 0.05;
    FaultCampaignConfig cc =
        campaign_config(FaultKind::kDelayOutlier, c.sites, c.factor);
    cc.trials = trials;
    const FaultCampaign campaign(*mult_, *tech_, cfg, cc);
    CampaignRunOptions options;
    if (c.aged) {
      options.gate_delay_scale = aged;
      options.mean_dvth_v = dvth;
    }

    std::vector<StoredRun> runs;
    for (const SimKernel kernel :
         {SimKernel::kBatch, SimKernel::kSparse, SimKernel::kDense}) {
      fs::remove_all(dir);
      options.kernel = kernel;
      runs.push_back(run_stored(campaign, ops, options, dir));
    }
    for (std::size_t k = 1; k < runs.size(); ++k) {
      EXPECT_TRUE(runs[0].stats == runs[k].stats) << "kernel " << k;
      EXPECT_TRUE(runs[0].payloads == runs[k].payloads) << "kernel " << k;
    }
    EXPECT_EQ(runs[0].report.computed,
              static_cast<std::size_t>(trials) + 1);
    // Unit 0, the baseline, replays the shared fault-free trace.
    VariableLatencySystem system(*mult_, *tech_, cfg);
    EXPECT_EQ(runs[0].payloads[0],
              runtime::encode_run_stats(system.run(
                  compute_op_trace(*mult_, *tech_, ops,
                                   TraceOptions{.gate_delay_scale =
                                                    options.gate_delay_scale}),
                  options.mean_dvth_v)));
    // The plain parallel path scores the same lanes.
    options.kernel = SimKernel::kBatch;
    EXPECT_TRUE(campaign.run(ops, options) == runs[1].stats);

    uncovered += runs[0].stats.uncovered_violations;
    escaped += runs[0].stats.escaped_violations;
    storms += runs[0].stats.storm_engagements;
  }
  fs::remove_all(dir);
  // A few sites may all miss the long paths; a full group's must not.
  if (trials >= kCornerLanes) {
    EXPECT_GT(uncovered, 0u) << "premise: factor 40 settles past the window";
    EXPECT_GT(escaped, 0u) << "premise: metastability escapes happen";
    EXPECT_GT(storms, 0u) << "premise: the storm fallback engages";
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, TrialLaneTest,
                         ::testing::Values(1, 31, 32, 33, 100));

/// Stored runs of a 33-trial campaign: two lane groups, trials 0, 2, ...,
/// 32 in group 0 and 1, 3, ..., 31 in group 1.
class TrialLaneResumeTest : public FaultCampaignTest {
 protected:
  static FaultCampaign campaign() {
    FaultCampaignConfig cc =
        campaign_config(FaultKind::kDelayOutlier, 3, 8.0);
    cc.trials = 33;
    return FaultCampaign(*mult_, *tech_, system_config(), cc);
  }
  static std::span<const OperandPattern> ops() {
    return {patterns_->data(), 200};
  }
  // One directory per test: ctest runs the tests concurrently.
  void SetUp() override {
    dir_ = temp_path(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(TrialLaneResumeTest, LanesResumeAGroupSplitBySparseCheckpoints) {
  // Units 0..9 (baseline, trials 0..8) come from a sparse run; the lane
  // run restores them, so both groups are part restored, part scored.
  const FaultCampaign c = campaign();
  const StoredRun sparse = run_stored(
      c, ops(), CampaignRunOptions{.kernel = SimKernel::kSparse}, dir_);
  const fs::path killed = dir_ / "killed";
  ASSERT_EQ(persist_kept_units(dir_, killed, c.config_digest(ops()), 10), 10u);
  const StoredRun lanes = run_stored(
      c, ops(), CampaignRunOptions{.kernel = SimKernel::kBatch}, killed);
  EXPECT_EQ(lanes.report.restored, 10u);
  EXPECT_EQ(lanes.report.computed, 24u);
  EXPECT_TRUE(lanes.stats == sparse.stats);
  EXPECT_TRUE(lanes.payloads == sparse.payloads);
}

TEST_F(TrialLaneResumeTest, TransientOnAGroupsFirstUnitRetriesTheScore) {
  // One pool thread runs units in index order, so unit 2 (trial 1) is the
  // first unit of group 1. Find a chaos seed that throws on its first
  // attempt and on no attempt of units 0 and 1: the retry must score the
  // group as if nothing had happened.
  runtime::RunnerConfig rc;
  rc.max_retries = 8;
  rc.backoff_base = std::chrono::milliseconds(1);
  rc.chaos.rate = 0.3;
  const auto throws = [&](std::uint64_t unit, int attempt) {
    return rc.chaos.decide(unit, attempt) ==
           runtime::ChaosAction::kThrowTransient;
  };
  for (rc.chaos.seed = 1;; ++rc.chaos.seed) {
    if (throws(2, 0) && !throws(0, 0) && !throws(1, 0)) break;
  }
  exec::ThreadPool one(1);
  rc.pool = &one;
  const FaultCampaign c = campaign();
  const StoredRun lanes = run_stored(
      c, ops(), CampaignRunOptions{.kernel = SimKernel::kBatch}, dir_, rc);
  EXPECT_GE(lanes.report.units[2].attempts, 2);
  EXPECT_GT(lanes.report.retries, 0u);
  EXPECT_EQ(lanes.report.quarantined, 0u);

  fs::remove_all(dir_);
  const StoredRun sparse = run_stored(
      c, ops(), CampaignRunOptions{.kernel = SimKernel::kSparse}, dir_);
  EXPECT_TRUE(lanes.stats == sparse.stats);
  EXPECT_TRUE(lanes.payloads == sparse.payloads);
}

// The shared fault-free trace is computed in one word-aligned segment per
// pool lane (docs/PERF.md "Fault-campaign trial lanes").

/// Value of the process counter `name` (0 when never registered).
std::uint64_t counter_value(std::string_view name) {
  for (const obs::MetricValue& m : obs::metrics_snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

/// A 33-trial campaign over all 500 ops (8 words, so up to 8 segments),
/// aged seven years.
class TraceSegmentTest : public TrialLaneResumeTest {
 protected:
  static std::span<const OperandPattern> all_ops() { return *patterns_; }
  static CampaignRunOptions aged_options() {
    static const AgingScenario scenario(mult_->netlist, *tech_,
                                        BtiModel::calibrated(*tech_), 0x7EA2,
                                        1000);
    static const std::vector<double> aged = scenario.delay_scales_at(7.0);
    return {.gate_delay_scale = aged,
            .mean_dvth_v = scenario.mean_dvth_at(7.0),
            .kernel = SimKernel::kBatch};
  }
  void SetUp() override {
    TrialLaneResumeTest::SetUp();
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    TrialLaneResumeTest::TearDown();
  }
};

TEST_F(TraceSegmentTest, LanesMatchAcrossThreadCounts) {
  std::optional<StoredRun> one;
  for (const int threads : {1, 2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    exec::ThreadPool pool(threads);
    runtime::RunnerConfig rc;
    rc.pool = &pool;
    fs::remove_all(dir_);
    obs::reset_metrics();
    StoredRun run = run_stored(campaign(), all_ops(), aged_options(), dir_, rc);
    // One segment per lane: with 3, a segment of 2 words and two of 3.
    EXPECT_EQ(counter_value("campaign.trace_segments"),
              static_cast<std::uint64_t>(threads));
    EXPECT_EQ(run.report.computed, 34u);
    if (!one) {
      one = std::move(run);
      continue;
    }
    EXPECT_TRUE(run.stats == one->stats);
    EXPECT_TRUE(run.payloads == one->payloads);
  }
  // And the one-segment batch run is the per-trial sparse reference.
  fs::remove_all(dir_);
  CampaignRunOptions sparse = aged_options();
  sparse.kernel = SimKernel::kSparse;
  const StoredRun reference = run_stored(campaign(), all_ops(), sparse, dir_);
  EXPECT_TRUE(reference.stats == one->stats);
  EXPECT_TRUE(reference.payloads == one->payloads);
}

TEST_F(TraceSegmentTest, RestoredUnitsComputeNoSegment) {
  exec::ThreadPool pool(4);
  runtime::RunnerConfig rc;
  rc.pool = &pool;
  const StoredRun first = run_stored(campaign(), all_ops(), aged_options(),
                                     dir_, rc);
  EXPECT_EQ(counter_value("campaign.trace_segments"), 4u);
  obs::reset_metrics();
  const StoredRun again = run_stored(campaign(), all_ops(), aged_options(),
                                     dir_, rc);
  EXPECT_EQ(again.report.restored, 34u);
  EXPECT_EQ(counter_value("campaign.trace_segments"), 0u);
  EXPECT_TRUE(again.stats == first.stats);
}

TEST_F(TraceSegmentTest, AThrowingSegmentGoesBackUnclaimed) {
  // Both operands load onto the A inputs, so the products are wrong and
  // the golden check throws in every segment. Every unit needs the trace;
  // each attempt claims a free segment, throws and frees it, so the run
  // ends with every unit quarantined instead of waiting on a segment
  // nobody holds.
  MultiplierNetlist broken = *mult_;
  broken.b_first_input = broken.a_first_input;
  FaultCampaignConfig cc = campaign_config(FaultKind::kDelayOutlier, 1, 8.0);
  cc.trials = 40;
  const FaultCampaign campaign(broken, *tech_, system_config(), cc);
  exec::ThreadPool pool(4);
  runtime::RunnerConfig rc;
  rc.pool = &pool;
  rc.max_retries = 2;
  rc.backoff_base = std::chrono::milliseconds(1);
  runtime::RobustRunner runner(rc);
  runtime::RunReport report;
  EXPECT_THROW(campaign.run(all_ops(), {.kernel = SimKernel::kBatch,
                                        .runner = &runner,
                                        .report = &report}),
               runtime::RunError);
  EXPECT_EQ(report.quarantined, 41u);
  for (const runtime::UnitOutcome& unit : report.units) {
    EXPECT_NE(unit.error.find("netlist product mismatch"), std::string::npos)
        << unit.error;
  }
  // Each attempt computed one segment, in turn, and none finished.
  EXPECT_GE(counter_value("campaign.trace_segments"), 41u);
}

TEST_F(FaultCampaignTest, TraceHelpers) {
  EXPECT_DOUBLE_EQ(max_delay_ps({}), 0.0);
  EXPECT_DOUBLE_EQ(delay_percentile_ps({}, 0.5), 0.0);
  EXPECT_THROW(delay_percentile_ps(*clean_trace_, 1.5),
               std::invalid_argument);
  const double med = delay_percentile_ps(*clean_trace_, 0.5);
  const double p95 = delay_percentile_ps(*clean_trace_, 0.95);
  const double max = max_delay_ps(*clean_trace_);
  EXPECT_LE(med, p95);
  EXPECT_LE(p95, max);
  EXPECT_LE(max, crit_ + 1e-9);
  EXPECT_THROW(output_cone_delay_overlay(mult_->netlist, 2.0, 0),
               std::invalid_argument);
}

TEST_F(FaultCampaignTest, DelayPercentileUsesNearestRank) {
  // Convention pin (src/core/quantile.hpp): on N=4 delays the median is the
  // 2nd sample — the historic floor(q*N) indexing returned the 3rd.
  std::vector<OpTrace> trace(4);
  trace[0].delay_ps = 30.0;
  trace[1].delay_ps = 10.0;
  trace[2].delay_ps = 40.0;
  trace[3].delay_ps = 20.0;
  EXPECT_DOUBLE_EQ(delay_percentile_ps(trace, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(delay_percentile_ps(trace, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(delay_percentile_ps(trace, 0.75), 30.0);
  EXPECT_DOUBLE_EQ(delay_percentile_ps(trace, 1.0), 40.0);
}

}  // namespace
}  // namespace agingsim
