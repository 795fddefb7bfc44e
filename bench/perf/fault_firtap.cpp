// fault_firtap: the fault-campaign path on a low-activity stream.
//
// One job is a FaultCampaign on CB16 aged seven years, with delay outliers
// (2 sites, x8) at 0.58 x the fresh critical path, default kernel, under a
// RobustRunner with a fresh CheckpointStore. The operands are an 8-tap FIR
// filter's: each tap a block of FIR-tap ops with its own coefficient.
// Only ~6 % of gates are evaluated per step, where the sparse kernel wins,
// and every trial is one fsync'd checkpoint file. After the timed jobs the
// finished store is re-attached 200 times, which exercises the read path;
// the first few re-attaches run slow, so the median needs that many.

#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "bench/perf/harness.hpp"
#include "src/aging/scenario.hpp"
#include "src/fault/campaign.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/serial.hpp"
#include "src/workload/patterns.hpp"

namespace agingbench {
namespace {

using namespace agingsim;

constexpr double kYears = 7.0;
constexpr int kResumes = 200;
constexpr int kTaps = 8;

struct State {
  MultiplierNetlist mult;
  std::vector<double> scales;
  double dvth = 0.0;
  std::vector<OperandPattern> operands;
  VlSystemConfig system;
  std::optional<FaultCampaign> campaign;
  std::uint64_t digest = 0;
};

FaultCampaignConfig campaign_config(const Options& opt, int trials) {
  FaultCampaignConfig fc;
  fc.kind = FaultKind::kDelayOutlier;
  fc.trials = trials;
  fc.sites_per_trial = 2;
  fc.delay_factor = 8.0;
  fc.seed = derive_seed(opt.seed, "fault/sites");
  return fc;
}

std::unique_ptr<State> set_up(const Options& opt, int trials, std::size_t ops) {
  auto s = std::make_unique<State>();
  {
    obs::TraceSpan span("netlist.build");
    s->mult = build_multiplier(MultiplierArch::kColumnBypass, 16);
  }
  {
    obs::TraceSpan span("aging.scenario");
    const AgingScenario scenario(s->mult.netlist, tech(),
                                 BtiModel::calibrated(tech()),
                                 derive_seed(opt.seed, "fault/stress"), 1000);
    obs::TraceSpan scales_span("aging.scales");
    s->scales = scenario.delay_scales_at(kYears);
    s->dvth = scenario.mean_dvth_at(kYears);
  }
  VlSystemConfig& cfg = s->system;
  {
    obs::TraceSpan span("sta.critical_path");
    cfg.period_ps = 0.58 * critical_path_ps(s->mult, tech());
  }
  cfg.ahl.width = 16;
  cfg.ahl.skip = 7;
  cfg.razor.metastability_window_ps = 5.0;
  cfg.razor.edge_escape_prob = 0.5;
  // The filter's taps take turns on the multiplier, each for a block of
  // ops with its own coefficient, so the stream's activity does not hinge
  // on a single random coefficient.
  Rng rng(derive_seed(opt.seed, "fault/operands"));
  for (int tap = 0; tap < kTaps; ++tap) {
    const auto block = fir_tap_patterns(rng, 16, ops / kTaps);
    s->operands.insert(s->operands.end(), block.begin(), block.end());
  }
  s->campaign.emplace(s->mult, tech(), cfg, campaign_config(opt, trials));
  s->digest = s->campaign->config_digest(s->operands, s->scales, s->dvth);
  return s;
}

/// The statistics plus the operating point: delays that all scale alike
/// leave every count unchanged, but not the clock period.
std::uint64_t digest_stats(const FaultCampaignStats& s, double period_ps) {
  runtime::Digest d;
  d.mix(period_ps).mix(static_cast<int>(s.kind)).mix(s.trials).mix(s.ops);
  d.mix(s.faults_injected).mix(s.detected_violations);
  d.mix(s.escaped_violations).mix(s.uncovered_violations).mix(s.sdc_ops);
  d.mix(s.masked_faults).mix(s.trials_with_sdc).mix(s.storm_engagements);
  d.mix(s.storm_recoveries).mix(s.trials_quarantined);
  d.mix(s.detection_coverage).mix(s.sdc_per_10k_ops);
  d.mix(s.avg_cycles_faulty).mix(s.avg_cycles_baseline);
  d.mix(s.throughput_degradation).mix(s.baseline_errors_per_10k_ops);
  return d.value();
}

/// One campaign execution against the store in `dir` (fresh or finished).
FaultCampaignStats run_attached(const State& s,
                                const std::filesystem::path& dir,
                                runtime::RunReport* report) {
  runtime::CheckpointStore store(dir, s.digest);
  {
    obs::TraceSpan span("checkpoint.attach");
    store.load();
  }
  runtime::RunnerConfig rc;
  rc.checkpoints = &store;
  rc.pool = &pool();
  runtime::RobustRunner runner(rc);
  CampaignRunOptions options;
  options.gate_delay_scale = s.scales;
  options.mean_dvth_v = s.dvth;
  options.runner = &runner;
  options.report = report;
  obs::TraceSpan span("campaign.call");
  return s.campaign->run(s.operands, options);
}

Job run_campaign(const State& s, const std::filesystem::path& dir,
                 FaultCampaignStats* stats) {
  std::filesystem::remove_all(dir);
  const Clock::time_point t0 = Clock::now();
  runtime::RunReport report;
  *stats = run_attached(s, dir, &report);
  Job job;
  job.wall_s = seconds_since(t0);
  job.work = stats->trials;
  job.attempted = static_cast<std::uint64_t>(s.campaign->config().trials);
  job.failed = stats->trials_quarantined;
  job.digest = digest_stats(*stats, s.system.period_ps);
  return job;
}

}  // namespace

void run_fault_firtap(const Options& opt, Result& r) {
  const int trials = opt.smoke ? 8 : 256;
  const std::size_t ops = opt.smoke ? 200 : 4000;
  std::unique_ptr<State> state;
  for (int i = 0; i < setup_count(opt); ++i) {
    state.reset();
    state = timed_setup(r, [&] { return set_up(opt, trials, ops); });
  }
  const State& s = *state;
  const std::filesystem::path dir =
      std::filesystem::path(opt.work_dir) / "fault-store";

  FaultCampaignStats last;  // statistics of the latest campaign run
  {
    obs::TraceSpan span("bench.warmup");
    r.warmup = run_campaign(s, dir, &last);
  }

  {
    // An 8-trial twin of the campaign, sparse kernel against dense.
    obs::TraceSpan span("bench.verify");
    const FaultCampaign twin(s.mult, tech(), s.system, campaign_config(opt, 8));
    CampaignRunOptions options;
    options.gate_delay_scale = s.scales;
    options.mean_dvth_v = s.dvth;
    options.kernel = SimKernel::kSparse;
    const FaultCampaignStats sparse = [&] {
      obs::TraceSpan call("campaign.call");
      return twin.run(s.operands, options);
    }();
    options.kernel = SimKernel::kDense;
    const FaultCampaignStats dense = [&] {
      obs::TraceSpan call("campaign.call");
      return twin.run(s.operands, options);
    }();
    check(r, "twin8_sparse_equals_dense", sparse == dense);
  }

  std::vector<double> resume_ms;
  {
    obs::TraceSpan window("bench.timed");
    snapshot_metrics(r, "metrics_before");
    run_jobs(opt, r, [&] { return run_campaign(s, dir, &last); });
    std::size_t bad_resumes = 0;
    for (int i = 0; i < kResumes; ++i) {
      obs::TraceSpan span("bench.resume", static_cast<std::uint64_t>(i));
      const Clock::time_point t0 = Clock::now();
      runtime::RunReport report;
      const FaultCampaignStats resumed = run_attached(s, dir, &report);
      resume_ms.push_back(1e3 * seconds_since(t0));
      bad_resumes += !(resumed == last) ||
                     report.restored != static_cast<std::size_t>(trials) + 1;
    }
    check(r, "resume_restores_every_unit", bad_resumes == 0,
          std::to_string(bad_resumes) + " of " + std::to_string(kResumes) +
              " re-attaches recomputed or differed");
    snapshot_metrics(r, "metrics_after");
  }
  r.series.emplace_back("resume_ms", std::move(resume_ms));
  r.numbers.emplace_back("sim_ops_per_job",
                         static_cast<double>((trials + 1) * ops));
  r.numbers.emplace_back("netlist_gates",
                         static_cast<double>(s.mult.netlist.num_gates()));
  r.numbers.emplace_back("mean_gates_per_step",
                         static_cast<double>(s.mult.netlist.num_gates()));
  r.numbers.emplace_back("ops_per_call", static_cast<double>(ops));
  std::filesystem::remove_all(dir);
}

}  // namespace agingbench
