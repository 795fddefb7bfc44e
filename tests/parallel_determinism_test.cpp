// The parallel executor's determinism contract, end to end: a period sweep,
// a fault campaign and their JSON serializations must be byte-identical for
// any thread count (explicit pool sizes and AGINGSIM_THREADS alike).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/fault/campaign.hpp"
#include "src/obs/metrics.hpp"
#include "src/report/json.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"

namespace agingsim {
namespace {

using bench::linspace;
using bench::sweep_periods;
using bench::tech;
using bench::workload;

class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("AGINGSIM_THREADS")) old_ = old;
    ::setenv("AGINGSIM_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (old_.has_value()) {
      ::setenv("AGINGSIM_THREADS", old_->c_str(), 1);
    } else {
      ::unsetenv("AGINGSIM_THREADS");
    }
  }

 private:
  std::optional<std::string> old_;
};

std::string stats_json(std::span<const RunStats> stats) {
  JsonWriter json;
  json.begin_array();
  for (const RunStats& s : stats) {
    json.begin_object();
    json.key("period_ps").value(s.period_ps);
    json.key("ops").value(s.ops);
    json.key("one_cycle_ops").value(s.one_cycle_ops);
    json.key("errors").value(s.errors);
    json.key("avg_latency_ps").value(s.avg_latency_ps);
    json.key("avg_power_mw").value(s.avg_power_mw);
    json.key("edp_mw_ns2").value(s.edp_mw_ns2);
    json.key("total_energy_fj").value(s.total_energy_fj);
    json.end_object();
  }
  json.end_array();
  return json.str();
}

TEST(ParallelDeterminismTest, SweepIsIdenticalAcrossExplicitPoolSizes) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const auto trace = compute_op_trace(m, tech(), workload(16, 300));
  const auto periods = linspace(600.0, 1300.0, 6);

  exec::ThreadPool serial(1);
  const auto base = sweep_periods(m, trace, periods, 7, true, 0.0, &serial);
  ASSERT_EQ(base.size(), periods.size());
  for (const int threads : {2, 4, 8}) {
    exec::ThreadPool pool(threads);
    const auto got = sweep_periods(m, trace, periods, 7, true, 0.0, &pool);
    EXPECT_TRUE(got == base) << threads << "-thread sweep diverged";
    EXPECT_EQ(stats_json(got), stats_json(base));
  }
}

TEST(ParallelDeterminismTest, SweepHonorsThreadsEnvIdentically) {
  const MultiplierNetlist m = build_row_bypass_multiplier(16);
  const auto trace = compute_op_trace(m, tech(), workload(16, 200));
  const auto periods = linspace(600.0, 1300.0, 5);

  const auto run_with_env = [&](const char* env) {
    ScopedThreadsEnv scoped(env);
    return sweep_periods(m, trace, periods, 7, true);  // one-shot pool path
  };
  const auto one = run_with_env("1");
  const auto eight = run_with_env("8");
  EXPECT_TRUE(one == eight);
  EXPECT_EQ(stats_json(one), stats_json(eight));
}

TEST(ParallelDeterminismTest, FaultCampaignIsIdenticalAcrossThreadCounts) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  VlSystemConfig system;
  system.period_ps = 900.0;
  system.ahl.width = 16;
  system.ahl.skip = 7;
  FaultCampaignConfig config;
  config.kind = FaultKind::kStuckAt0;
  config.trials = 5;
  config.sites_per_trial = 2;
  const FaultCampaign campaign(m, tech(), system, config);
  const auto patterns = workload(16, 200);

  const auto run_with_env = [&](const char* env) {
    ScopedThreadsEnv scoped(env);
    return campaign.run(patterns);
  };
  const FaultCampaignStats one = run_with_env("1");
  const FaultCampaignStats eight = run_with_env("8");
  EXPECT_TRUE(one == eight);
  EXPECT_EQ(one.trials, 5u);
  EXPECT_EQ(one.ops, 5u * 200u);
}

TEST(ParallelDeterminismTest, BatchKernelCampaignIsIdenticalAcrossThreads) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  VlSystemConfig system;
  system.period_ps = 900.0;
  system.ahl.width = 16;
  system.ahl.skip = 7;
  FaultCampaignConfig config;
  config.kind = FaultKind::kDelayOutlier;
  config.trials = 5;
  config.sites_per_trial = 2;
  const FaultCampaign campaign(m, tech(), system, config);
  const auto patterns = workload(16, 150);

  const auto run_with = [&](const char* threads, SimKernel kernel) {
    ScopedThreadsEnv scoped(threads);
    return campaign.run(patterns, CampaignRunOptions{.kernel = kernel});
  };
  const FaultCampaignStats one = run_with("1", SimKernel::kBatch);
  const FaultCampaignStats eight = run_with("8", SimKernel::kBatch);
  EXPECT_TRUE(one == eight) << "batch campaign diverged across thread counts";
  // The kernels are bit-identical, so the whole campaign is too: the batch
  // word kernel must reproduce the sparse event-driven statistics exactly.
  const FaultCampaignStats sparse = run_with("8", SimKernel::kSparse);
  EXPECT_TRUE(one == sparse) << "batch campaign diverged from sparse kernel";
  EXPECT_EQ(one.trials, 5u);
  EXPECT_GT(one.ops, 0u);
}

// A campaign killed mid-run leaves the checkpoint store with only the units
// that finished (persist is atomic per unit — a SIGKILL can tear nothing
// else). Emulated here by erasing the trailing units' files; the resumed
// campaign must restore the survivors, recompute only the missing units,
// and land on byte-identical statistics — even when the resume switches
// kernel and thread count, since neither is part of the config digest.
TEST(ParallelDeterminismTest, BatchCampaignResumesIdenticallyAfterKill) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "agingsim_batch_resume_test";
  fs::remove_all(dir);

  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  VlSystemConfig system;
  system.period_ps = 900.0;
  system.ahl.width = 16;
  system.ahl.skip = 7;
  FaultCampaignConfig config;
  config.kind = FaultKind::kStuckAt1;
  config.trials = 6;
  config.sites_per_trial = 2;
  const FaultCampaign campaign(m, tech(), system, config);
  const auto patterns = workload(16, 120);
  const std::uint64_t digest = campaign.config_digest(patterns);

  runtime::RunnerConfig fast;
  fast.max_retries = 0;
  fast.backoff_base = std::chrono::milliseconds(1);

  // Uninterrupted single-thread sparse run: the golden statistics, and the
  // full set of per-unit checkpoints (baseline + trials = 7 files).
  FaultCampaignStats golden;
  {
    ScopedThreadsEnv scoped("1");
    runtime::CheckpointStore store(dir, digest);
    store.load();
    runtime::RunnerConfig cfg = fast;
    cfg.checkpoints = &store;
    runtime::RobustRunner runner(cfg);
    golden = campaign.run(
        patterns,
        CampaignRunOptions{.kernel = SimKernel::kSparse, .runner = &runner});
  }

  // "Kill" after unit 2: units 3.. never persisted.
  std::size_t erased = 0;
  for (std::uint64_t unit = 3; unit <= 6; ++unit) {
    char name[32];
    std::snprintf(name, sizeof name, "unit-%06llu.ckpt",
                  static_cast<unsigned long long>(unit));
    erased += fs::remove(dir / name) ? 1u : 0u;
  }
  ASSERT_EQ(erased, 4u);

  // Resume on 8 threads under the batch kernel: restored prefix + freshly
  // computed tail must reproduce the golden statistics exactly.
  {
    ScopedThreadsEnv scoped("8");
    runtime::CheckpointStore store(dir, digest);
    ASSERT_EQ(store.load().loaded, 3u);  // baseline + units 1, 2
    runtime::RunnerConfig cfg = fast;
    cfg.checkpoints = &store;
    runtime::RobustRunner runner(cfg);
    runtime::RunReport report;
    const FaultCampaignStats resumed = campaign.run(
        patterns, CampaignRunOptions{.kernel = SimKernel::kBatch,
                                     .runner = &runner,
                                     .report = &report});
    EXPECT_TRUE(resumed == golden) << "resumed campaign diverged";
    EXPECT_EQ(report.restored, 3u);
    EXPECT_EQ(report.computed, 4u);
  }
  fs::remove_all(dir);
}

TEST(ParallelDeterminismTest, MetricsSnapshotIsIdenticalAcrossThreadCounts) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  VlSystemConfig system;
  system.period_ps = 900.0;
  system.ahl.width = 16;
  system.ahl.skip = 7;
  FaultCampaignConfig config;
  config.kind = FaultKind::kStuckAt0;
  config.trials = 4;
  config.sites_per_trial = 2;
  const FaultCampaign campaign(m, tech(), system, config);
  // 40 delay-outlier trials: two lane groups, the second part full.
  config.kind = FaultKind::kDelayOutlier;
  config.trials = 40;
  const FaultCampaign delay_campaign(m, tech(), system, config);
  const auto patterns = workload(16, 150);

  obs::set_metrics_enabled(true);
  const auto snapshot_with_env = [&](const char* env, const FaultCampaign& c,
                                     SimKernel kernel) {
    ScopedThreadsEnv scoped(env);
    obs::reset_metrics();
    (void)c.run(patterns, CampaignRunOptions{.kernel = kernel});
    // Deterministic-only: wall-time metrics (pool.worker_busy_us,
    // pool.queue_depth, ...) are scheduling-dependent by design and
    // excluded from the contract.
    return obs::metrics_json(/*deterministic_only=*/true);
  };
  // The default batch kernel, then the sparse reference kernel, then
  // delay-outlier trials in corner lanes; each snapshot must show that
  // path's counters, not an empty registry.
  struct Case {
    const FaultCampaign* campaign;
    SimKernel kernel;
    const char* sim_counter;
  };
  const Case cases[] = {
      {&campaign, SimKernel::kBatch, "\"sim.batch.words\""},
      {&campaign, SimKernel::kSparse, "\"sim.steps_dense\""},
      {&delay_campaign, SimKernel::kBatch, "\"sim.corner.steps\""}};
  for (const auto& [c, kernel, sim_counter] : cases) {
    SCOPED_TRACE(sim_counter);
    const std::string one = snapshot_with_env("1", *c, kernel);
    const std::string eight = snapshot_with_env("8", *c, kernel);
    EXPECT_EQ(one, eight);
    EXPECT_NE(one.find(sim_counter), std::string::npos) << one;
    EXPECT_NE(one.find("\"campaign.trials_completed\""), std::string::npos);
    EXPECT_NE(one.find("\"pool.jobs\""), std::string::npos);
    EXPECT_EQ(one.find("\"pool.worker_busy_us\""), std::string::npos) << one;
  }
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace agingsim
