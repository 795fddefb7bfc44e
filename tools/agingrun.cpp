// agingrun — crash-safe campaign runner (docs/ROBUSTNESS.md).
//
// Front-end of the src/runtime/ execution layer: runs a FaultCampaign, a
// period sweep, or a Monte-Carlo process-variation + stochastic-aging
// campaign (--campaign mc, docs/MODEL.md) under the RobustRunner with
// checkpoint/resume, watchdog
// deadlines, retry-with-backoff, poison-task quarantine and deterministic
// chaos injection. A run killed at any instant (SIGKILL, OOM, chaos crash)
// and restarted with --resume completes the remaining work units and
// emits JSON byte-identical to an uninterrupted run — the property the CI
// kill-and-resume job asserts with cmp(1).
//
// SIGINT/SIGTERM are handled cooperatively (runtime::SignalWatch): the
// handler pokes a self-pipe, a watcher thread cancels the runner's stop
// token, in-flight units wind down, completed units stay checkpointed,
// trace/metrics artifacts are flushed, and the process exits 130 (SIGINT)
// or 143 (SIGTERM) — so an interrupted campaign resumes with --resume
// instead of starting over.
//
// Exit codes: 0 = campaign complete, every unit ok;
//             1 = campaign complete but some units quarantined;
//             2 = usage error;
//             3 = checkpoint directory unusable;
//             86 = chaos-simulated crash (resume loops restart on this);
//             130/143 = interrupted by SIGINT/SIGTERM, partial results
//                       checkpointed.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bench/common.hpp"
#include "src/core/cli.hpp"
#include "src/fault/campaign.hpp"
#include "src/mc/mc_campaign.hpp"
#include "src/mc/mc_report.hpp"
#include "src/obs/artifacts.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/report/json.hpp"
#include "src/report/stats_json.hpp"
#include "src/runtime/chaos.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/serial.hpp"
#include "src/runtime/signal_watch.hpp"

namespace {

using namespace agingsim;

struct Options {
  std::string campaign = "fault";  // fault | sweep | mc
  int width = 16;
  int trials = 48;
  std::optional<std::size_t> ops;  // 1500; mc: 256
  int sites_per_trial = 2;
  FaultKind kind = FaultKind::kDelayOutlier;
  double delay_factor = 8.0;
  std::uint64_t seed = 0xFA17;
  double period_frac = 0.58;  // of the fresh critical path
  int sweep_points = 32;
  std::string checkpoint_dir;
  bool resume = false;
  long deadline_ms = 0;
  int max_retries = 3;
  long backoff_ms = 25;
  std::optional<runtime::ChaosPolicy> chaos;  // none = AGINGSIM_CHAOS
  // Monte-Carlo campaign shape (--campaign mc); trials/ops/seed above are
  // shared with the fault campaign.
  std::vector<MultiplierArch> arches = {MultiplierArch::kArray,
                                        MultiplierArch::kColumnBypass,
                                        MultiplierArch::kRowBypass};
  int block = 32;
  std::vector<double> years = {0.0, 7.0};
  int strata = 16;
  double sigma_random = 0.05;
  double sigma_grid = 0.03;
  double sigma_die = 0.03;
  double sigma_aging = 0.10;
  int surface_points = 29;
  std::string kernel;  // empty = AGINGSIM_KERNEL / batch
  std::string json_path = "-";
  std::string trace_path;    // empty = AGINGSIM_TRACE / off
  std::string metrics_path;  // empty = AGINGSIM_METRICS / off
  bool quiet = false;
};

void print_usage(std::ostream& os) {
  os << "usage: agingrun [options]\n"
        "  --campaign NAME    fault (trial campaign), sweep (period sweep)\n"
        "                     or mc (Monte-Carlo variation + stochastic\n"
        "                     aging, docs/MODEL.md) [fault]\n"
        "  --width N          multiplier width in [2,32] [16]\n"
        "  --trials N         trials (fault) / dies per arch (mc) [48]\n"
        "  --ops N            operations per trial [1500; mc: 256]\n"
        "  --sites N          fault sites per trial [2]\n"
        "  --kind NAME        stuck0|stuck1|transient|delay [delay]\n"
        "  --delay-factor F   delay multiplier for kind=delay [8.0]\n"
        "  --seed S           campaign seed [0xFA17]\n"
        "  --period-frac F    cycle period as a fraction of the fresh\n"
        "                     critical path [0.58]\n"
        "  --sweep-points N   points for --campaign sweep [32]\n"
        "  --arch NAME        mc: am|cb|rb|all [all]\n"
        "  --block N          mc: trials per checkpoint unit [32]\n"
        "  --years LIST       mc: comma-separated evaluation years [0,7]\n"
        "  --strata N         mc: die-normal strata (variance reduction,\n"
        "                     1 = plain sampling) [16]\n"
        "  --sigma-random F   mc: independent per-gate lognormal sigma"
        " [0.05]\n"
        "  --sigma-grid F     mc: correlated level-grid lognormal sigma"
        " [0.03]\n"
        "  --sigma-die F      mc: die-to-die lognormal sigma [0.03]\n"
        "  --sigma-aging F    mc: stochastic-aging jitter sigma [0.10]\n"
        "  --surface-points N mc: failure-surface period samples [29]\n"
        "  --checkpoint-dir D persist completed units under D (enables\n"
        "                     crash-safety; no dir = in-memory only)\n"
        "  --resume           keep and reuse existing checkpoints (without\n"
        "                     this flag a fresh run clears the directory)\n"
        "  --deadline-ms N    per-attempt watchdog deadline, 0 = off [0]\n"
        "  --max-retries N    retry budget for transient failures [3]\n"
        "  --backoff-ms N     base backoff before the first retry [25]\n"
        "  --chaos SPEC       seed:rate[:actions], actions in [tpsc]\n"
        "                     (overrides AGINGSIM_CHAOS)\n"
        "  --kernel NAME      step kernel: dense|sparse|batch (overrides\n"
        "                     AGINGSIM_KERNEL) [batch]\n"
        "  --json PATH        write campaign JSON to PATH ('-' = stdout)\n"
        "  --trace PATH       record spans, write a Chrome trace-event\n"
        "                     file to PATH (chrome://tracing, Perfetto)\n"
        "  --metrics PATH     record metrics, write a JSON snapshot to\n"
        "                     PATH (see docs/OBSERVABILITY.md)\n"
        "  --quiet            suppress the runtime summary on stderr\n"
        "  --help             this text\n";
}

/// --arch: one of am|cb|rb, or all three.
std::optional<std::vector<MultiplierArch>> parse_arches(
    std::string_view name) {
  if (name == "all") return Options{}.arches;
  const auto arch = parse_arch(name);
  if (!arch || *arch == MultiplierArch::kWallaceTree) return std::nullopt;
  return std::vector{*arch};
}

Options parse_args(int argc, char** argv) {
  Options opt;
  cli::FlagReader args("agingrun", print_usage);
  args.choice("--campaign", opt.campaign, {"fault", "sweep", "mc"});
  args.integer("--width", opt.width, 2, 32);
  args.integer("--trials", opt.trials, 1);
  args.integer("--ops", opt.ops, 1);
  args.integer("--sites", opt.sites_per_trial, 1);
  args.value("--kind", opt.kind, parse_fault_kind,
             "stuck0|stuck1|transient|delay");
  args.positive("--delay-factor", opt.delay_factor);
  args.seed("--seed", opt.seed);
  args.positive("--period-frac", opt.period_frac);
  args.integer("--sweep-points", opt.sweep_points, 1);
  args.value("--arch", opt.arches, parse_arches, "am|cb|rb|all");
  args.integer("--block", opt.block, 1);
  args.years("--years", opt.years);
  args.integer("--strata", opt.strata, 1);
  args.number("--sigma-random", opt.sigma_random, 0.0, kMaxSigma);
  args.number("--sigma-grid", opt.sigma_grid, 0.0, kMaxSigma);
  args.number("--sigma-die", opt.sigma_die, 0.0, kMaxSigma);
  args.number("--sigma-aging", opt.sigma_aging, 0.0, kMaxSigma);
  args.integer("--surface-points", opt.surface_points, 1);
  args.text("--checkpoint-dir", opt.checkpoint_dir);
  args.on("--resume", opt.resume);
  args.integer("--deadline-ms", opt.deadline_ms, 0);
  args.integer("--max-retries", opt.max_retries, 0);
  args.integer("--backoff-ms", opt.backoff_ms, 0);
  args.value("--chaos", opt.chaos,
             [](std::string_view spec) {
               return runtime::ChaosPolicy::parse(spec);
             },
             "seed:rate[:actions], rate in [0, 1], actions in [tpsc]");
  args.choice("--kernel", opt.kernel, {"dense", "sparse", "batch"});
  args.text("--json", opt.json_path);
  args.text("--trace", opt.trace_path);
  args.text("--metrics", opt.metrics_path);
  args.on("--quiet", opt.quiet);
  args.parse(argc, argv);
  // Exported rather than stored: every layer resolves the kernel through
  // AGINGSIM_KERNEL, so one setenv reaches them all.
  if (!opt.kernel.empty()) ::setenv("AGINGSIM_KERNEL", opt.kernel.c_str(), 1);
  return opt;
}

int write_json(const Options& opt, const std::string& json) {
  if (opt.json_path == "-") {
    std::cout << json << "\n";
    return 0;
  }
  // A run killed while writing its report must not leave a torn JSON
  // behind for cmp(1).
  return obs::write_file_atomic(opt.json_path, json, "agingrun") ? 0 : 2;
}

int run_tool(const Options& opt) {
  // Flip the recorders before any instrumented code runs; the files are
  // written after the campaign JSON below. AGINGSIM_TRACE/AGINGSIM_METRICS
  // (handled in src/obs/artifacts.cpp) remain usable alongside the flags.
  if (!opt.trace_path.empty()) obs::set_trace_enabled(true);
  if (!opt.metrics_path.empty()) obs::set_metrics_enabled(true);
  runtime::RunnerConfig runner_config;
  runtime::CancelToken stop;
  const runtime::SignalWatch signal_watch([&stop] { stop.cancel(); });
  runner_config.stop = &stop;
  runner_config.max_retries = opt.max_retries;
  runner_config.deadline = std::chrono::milliseconds(opt.deadline_ms);
  runner_config.backoff_base = std::chrono::milliseconds(opt.backoff_ms);
  runner_config.chaos = opt.chaos.value_or(runtime::ChaosPolicy::from_env());

  const TechLibrary& lib = bench::tech();

  JsonWriter json;
  json.begin_object();
  json.key("tool").value("agingrun");
  json.key("schema_version").value(std::int64_t{1});
  json.key("campaign").value(opt.campaign);
  json.key("width").value(opt.width);

  int exit_code = 0;
  runtime::RunReport report;
  std::optional<runtime::CheckpointStore> store;
  const auto attach_store = [&](std::uint64_t digest) -> bool {
    if (opt.checkpoint_dir.empty()) return true;
    try {
      store.emplace(opt.checkpoint_dir, digest);
      if (opt.resume) {
        const runtime::CheckpointScan scan = store->load();
        if (!opt.quiet) {
          std::fprintf(stderr,
                       "agingrun: resume: %zu units restored, %zu damaged "
                       "or stale records discarded\n",
                       scan.loaded, scan.discarded);
        }
      } else {
        store->clear();
      }
    } catch (const runtime::RunError& e) {
      std::cerr << "agingrun: " << e.what() << "\n";
      return false;
    }
    runner_config.checkpoints = &*store;
    return true;
  };

  // A signal-interrupted campaign is not an error: completed units are
  // checkpointed, the JSON says so, and the exit code is 128+signal.
  const auto unless_interrupted = [](const auto& run) {
    std::optional<std::decay_t<decltype(run())>> result;
    try {
      result = run();
    } catch (const runtime::RunError&) {
      if (runtime::SignalWatch::received() == 0) throw;
    }
    return result;
  };

  if (opt.campaign == "mc") {
    mc::McCampaignConfig mcfg;
    mcfg.width = opt.width;
    mcfg.arches = opt.arches;
    mcfg.trials = opt.trials;
    mcfg.block = opt.block;
    mcfg.ops = opt.ops.value_or(256);
    mcfg.seed = opt.seed;
    mcfg.years = opt.years;
    mcfg.variation.sigma_random = opt.sigma_random;
    mcfg.variation.sigma_grid = opt.sigma_grid;
    mcfg.variation.sigma_die = opt.sigma_die;
    mcfg.sigma_aging = opt.sigma_aging;
    mcfg.strata = opt.strata;
    mcfg.period_frac = opt.period_frac;
    const mc::McCampaign campaign(lib, std::move(mcfg));
    if (!attach_store(campaign.config_digest())) return 3;
    runtime::RobustRunner runner(runner_config);
    const auto result = unless_interrupted([&] {
      return campaign.run(
          mc::McRunOptions{.runner = &runner, .report = &report});
    });
    if (result.has_value()) {
      mc::McReportOptions report_options;
      report_options.surface_points = opt.surface_points;
      mc::write_mc_json(json, campaign.config(), *result, report_options);
    } else {
      json.key("interrupted").value(true);
    }
  } else {
    const std::size_t ops = opt.ops.value_or(1500);
    const MultiplierNetlist mult = build_column_bypass_multiplier(opt.width);
    const double crit = critical_path_ps(mult, lib);
    const auto pats = bench::workload(opt.width, ops);
    json.key("critical_path_ps").value(crit);
    json.key("period_ps").value(opt.period_frac * crit);
    json.key("ops").value(static_cast<std::uint64_t>(ops));
    if (opt.campaign == "fault") {
      VlSystemConfig cfg;
      cfg.period_ps = opt.period_frac * crit;
      cfg.ahl.width = opt.width;
      cfg.ahl.skip = default_skip(opt.width);
      cfg.razor.metastability_window_ps = 5.0;
      cfg.razor.edge_escape_prob = 0.5;

      FaultCampaignConfig cc;
      cc.kind = opt.kind;
      cc.trials = opt.trials;
      cc.sites_per_trial = opt.sites_per_trial;
      cc.delay_factor = opt.delay_factor;
      cc.seed = opt.seed;
      const FaultCampaign campaign(mult, lib, cfg, cc);
      if (!attach_store(campaign.config_digest(pats))) return 3;
      runtime::RobustRunner runner(runner_config);
      const auto stats = unless_interrupted([&] {
        return campaign.run(
            pats, CampaignRunOptions{.runner = &runner, .report = &report});
      });

      json.key("kind").value(fault_kind_name(cc.kind));
      json.key("configured_trials").value(cc.trials);
      json.key("sites_per_trial").value(cc.sites_per_trial);
      if (cc.kind == FaultKind::kDelayOutlier) {
        json.key("delay_factor").value(cc.delay_factor);
      }
      json.key("seed").value(cc.seed);
      if (stats.has_value()) {
        json.key("stats").begin_object();
        write_campaign_stats(json, *stats);
        json.end_object();
      } else {
        json.key("interrupted").value(true);
      }
    } else {
      // Period sweep: demonstrate the sweep_periods wiring under the same
      // runtime (unit = one sweep point).
      const auto trace = compute_op_trace(mult, lib, pats);
      const std::vector<double> periods =
          bench::linspace(0.45 * crit, 1.05 * crit, opt.sweep_points);
      runtime::Digest digest;
      digest.mix(std::string_view("agingrun-sweep/v1"))
          .mix(opt.width)
          .mix(static_cast<std::uint64_t>(ops))
          .mix(opt.period_frac)
          .mix(opt.sweep_points);
      if (!attach_store(digest.value())) return 3;
      runtime::RobustRunner runner(runner_config);
      const std::vector<RunStats> points =
          bench::sweep_periods(mult, trace, periods, default_skip(opt.width),
                               true, 0.0, nullptr, &runner, &report);

      json.key("points").begin_array();
      for (std::size_t i = 0; i < points.size(); ++i) {
        json.begin_object();
        if (report.units[i].state == runtime::UnitState::kQuarantined) {
          json.key("quarantined").value(true);
          json.key("period_ps").value(periods[i]);
        } else if (report.units[i].state == runtime::UnitState::kSkipped) {
          json.key("skipped").value(true);
          json.key("period_ps").value(periods[i]);
        } else {
          write_run_stats(json, points[i]);
        }
        json.end_object();
      }
      json.end_array();
      if (report.interrupted()) json.key("interrupted").value(true);
    }
  }
  json.end_object();

  if (!report.all_ok()) exit_code = 1;
  if (!opt.quiet) {
    std::fprintf(stderr, "agingrun: %s\n", report.summary().c_str());
    for (std::size_t u = 0; u < report.units.size(); ++u) {
      if (report.units[u].state == runtime::UnitState::kQuarantined) {
        std::fprintf(stderr, "agingrun: unit %zu quarantined [%s]: %s\n", u,
                     std::string(runtime::error_category_name(
                                     report.units[u].category))
                         .c_str(),
                     report.units[u].error.c_str());
      }
    }
  }
  const int write_code = write_json(opt, json.str());
  // Best-effort: a failed observability write diagnoses on stderr but never
  // changes the campaign's exit code.
  if (!opt.trace_path.empty()) (void)obs::write_trace_json(opt.trace_path);
  if (!opt.metrics_path.empty()) {
    (void)obs::write_metrics_json(opt.metrics_path);
  }
  if (const int sig = runtime::SignalWatch::received(); sig != 0) {
    if (!opt.quiet) {
      std::fprintf(stderr,
                   "agingrun: interrupted by signal %d; completed units "
                   "checkpointed, rerun with --resume\n",
                   sig);
    }
    return 128 + sig;
  }
  return write_code != 0 ? write_code : exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run_tool(opt);
  } catch (const std::exception& e) {
    std::cerr << "agingrun: fatal: " << e.what() << "\n";
    return 70;
  }
}
