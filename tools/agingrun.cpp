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
// SIGINT/SIGTERM are handled cooperatively: the handler pokes a self-pipe,
// a watcher thread cancels the runner's stop token, in-flight units wind
// down, completed units stay checkpointed, trace/metrics artifacts are
// flushed, and the process exits 130 (SIGINT) or 143 (SIGTERM) — so an
// interrupted campaign resumes with --resume instead of starting over.
//
// Exit codes: 0 = campaign complete, every unit ok;
//             1 = campaign complete but some units quarantined;
//             2 = usage error;
//             3 = checkpoint directory unusable;
//             86 = chaos-simulated crash (resume loops restart on this);
//             130/143 = interrupted by SIGINT/SIGTERM, partial results
//                       checkpointed.

#include <unistd.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/core/env.hpp"
#include "src/fault/campaign.hpp"
#include "src/mc/mc_campaign.hpp"
#include "src/mc/mc_report.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/report/json.hpp"
#include "src/runtime/chaos.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/serial.hpp"

namespace {

using namespace agingsim;

// Self-pipe signal plumbing: the handler does the only async-signal-safe
// things possible (set a flag, write one byte); a watcher thread turns the
// byte into a cooperative CancelToken::cancel().
int g_signal_pipe[2] = {-1, -1};
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) {
  g_signal = sig;
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Installs the handlers and runs the watcher; the destructor releases the
/// watcher so every return path of run_tool() joins it.
class SignalGuard {
 public:
  explicit SignalGuard(runtime::CancelToken& stop) {
    if (pipe(g_signal_pipe) != 0) return;
    armed_ = true;
    struct sigaction sa{};
    sa.sa_handler = on_signal;
    // One-shot: a second signal gets the default disposition, so a stuck
    // drain is never more than one more kill away.
    sa.sa_flags = SA_RESETHAND;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    watcher_ = std::thread([&stop] {
      char byte = 0;
      while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
      }
      if (byte == 's') stop.cancel();
    });
  }
  ~SignalGuard() {
    if (!armed_) return;
    const char byte = 'q';
    [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
    watcher_.join();
    ::close(g_signal_pipe[0]);
    ::close(g_signal_pipe[1]);
    g_signal_pipe[0] = g_signal_pipe[1] = -1;
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

 private:
  bool armed_ = false;
  std::thread watcher_;
};

struct Options {
  std::string campaign = "fault";  // fault | sweep | mc
  int width = 16;
  int trials = 48;
  std::size_t ops = 1500;
  bool ops_set = false;  // mc defaults ops to 256 unless given
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
  std::string chaos_spec;  // empty = AGINGSIM_CHAOS / none
  // Monte-Carlo campaign shape (--campaign mc); trials/ops/seed above are
  // shared with the fault campaign.
  std::string arch = "all";  // am | cb | rb | all
  int block = 32;
  std::string years = "0,7";
  int strata = 16;
  double sigma_random = 0.05;
  double sigma_grid = 0.03;
  double sigma_die = 0.03;
  double sigma_aging = 0.10;
  int surface_points = 29;
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
        "                     AGINGSIM_KERNEL) [sparse]\n"
        "  --batch-guard-ps F batch-kernel scalar-replay guard margin in ps\n"
        "                     (overrides AGINGSIM_BATCH_GUARD_PS) [0 = off]\n"
        "  --json PATH        write campaign JSON to PATH ('-' = stdout)\n"
        "  --trace PATH       record spans, write a Chrome trace-event\n"
        "                     file to PATH (chrome://tracing, Perfetto)\n"
        "  --metrics PATH     record metrics, write a JSON snapshot to\n"
        "                     PATH (see docs/OBSERVABILITY.md)\n"
        "  --quiet            suppress the runtime summary on stderr\n"
        "  --help             this text\n";
}

std::optional<FaultKind> parse_kind(const std::string& name) {
  if (name == "stuck0") return FaultKind::kStuckAt0;
  if (name == "stuck1") return FaultKind::kStuckAt1;
  if (name == "transient") return FaultKind::kTransient;
  if (name == "delay") return FaultKind::kDelayOutlier;
  return std::nullopt;
}

std::optional<std::vector<MultiplierArch>> parse_arches(
    const std::string& name) {
  if (name == "am") return std::vector{MultiplierArch::kArray};
  if (name == "cb") return std::vector{MultiplierArch::kColumnBypass};
  if (name == "rb") return std::vector{MultiplierArch::kRowBypass};
  if (name == "all") {
    return std::vector{MultiplierArch::kArray, MultiplierArch::kColumnBypass,
                       MultiplierArch::kRowBypass};
  }
  return std::nullopt;
}

/// "0,3.5,7" -> {0.0, 3.5, 7.0}; nullopt on malformed, empty, negative or
/// non-finite input (strtod accepts "nan" and "inf").
std::optional<std::vector<double>> parse_years(const std::string& spec) {
  std::vector<double> years;
  const char* p = spec.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || !std::isfinite(v) || v < 0.0) return std::nullopt;
    years.push_back(v);
    p = end;
    if (*p == ',') {
      ++p;
    } else if (*p != '\0') {
      return std::nullopt;
    }
  }
  if (years.empty()) return std::nullopt;
  return years;
}

std::optional<Options> parse_args(int argc, char** argv, int& exit_code) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << "agingrun: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    const auto need_long = [&](const char* flag, long min_v,
                               long& out) -> bool {
      const auto v = need_value(flag);
      if (!v) return false;
      char* end = nullptr;
      const long parsed = std::strtol(v->c_str(), &end, 0);
      if (end == v->c_str() || *end != '\0' || parsed < min_v) {
        std::cerr << "agingrun: " << flag << " wants an integer >= " << min_v
                  << ", got '" << *v << "'\n";
        return false;
      }
      out = parsed;
      return true;
    };
    long parsed = 0;
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      exit_code = 0;
      return std::nullopt;
    }
    if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--campaign") {
      const auto v = need_value("--campaign");
      if (!v || (*v != "fault" && *v != "sweep" && *v != "mc")) {
        std::cerr << "agingrun: --campaign wants fault|sweep|mc\n";
        exit_code = 2;
        return std::nullopt;
      }
      opt.campaign = *v;
    } else if (arg == "--width") {
      if (!need_long("--width", 2, parsed) || parsed > 32) {
        exit_code = 2;
        return std::nullopt;
      }
      opt.width = static_cast<int>(parsed);
    } else if (arg == "--trials") {
      if (!need_long("--trials", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.trials = static_cast<int>(parsed);
    } else if (arg == "--ops") {
      if (!need_long("--ops", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.ops = static_cast<std::size_t>(parsed);
      opt.ops_set = true;
    } else if (arg == "--sites") {
      if (!need_long("--sites", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.sites_per_trial = static_cast<int>(parsed);
    } else if (arg == "--kind") {
      const auto v = need_value("--kind");
      const auto kind = v ? parse_kind(*v) : std::nullopt;
      if (!kind) {
        std::cerr << "agingrun: --kind wants stuck0|stuck1|transient|delay\n";
        exit_code = 2;
        return std::nullopt;
      }
      opt.kind = *kind;
    } else if (arg == "--delay-factor") {
      const auto v = need_value("--delay-factor");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.delay_factor = std::atof(v->c_str());
      if (!(opt.delay_factor > 0.0)) {
        std::cerr << "agingrun: --delay-factor must be > 0\n";
        exit_code = 2;
        return std::nullopt;
      }
    } else if (arg == "--seed") {
      const auto v = need_value("--seed");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.seed = std::strtoull(v->c_str(), nullptr, 0);
    } else if (arg == "--period-frac") {
      const auto v = need_value("--period-frac");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.period_frac = std::atof(v->c_str());
      if (!(opt.period_frac > 0.0)) {
        std::cerr << "agingrun: --period-frac must be > 0\n";
        exit_code = 2;
        return std::nullopt;
      }
    } else if (arg == "--sweep-points") {
      if (!need_long("--sweep-points", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.sweep_points = static_cast<int>(parsed);
    } else if (arg == "--arch") {
      const auto v = need_value("--arch");
      if (!v || !parse_arches(*v).has_value()) {
        std::cerr << "agingrun: --arch wants am|cb|rb|all\n";
        exit_code = 2;
        return std::nullopt;
      }
      opt.arch = *v;
    } else if (arg == "--block") {
      if (!need_long("--block", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.block = static_cast<int>(parsed);
    } else if (arg == "--years") {
      const auto v = need_value("--years");
      if (!v || !parse_years(*v).has_value()) {
        std::cerr << "agingrun: --years wants a comma-separated list of\n"
                     "finite non-negative numbers, e.g. 0,3.5,7\n";
        exit_code = 2;
        return std::nullopt;
      }
      opt.years = *v;
    } else if (arg == "--strata") {
      if (!need_long("--strata", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.strata = static_cast<int>(parsed);
    } else if (arg == "--sigma-random" || arg == "--sigma-grid" ||
               arg == "--sigma-die" || arg == "--sigma-aging") {
      const auto v = need_value(arg.c_str());
      if (!v || !env::parse_double(*v).has_value() ||
          *env::parse_double(*v) < 0.0) {
        std::cerr << "agingrun: " << arg << " wants a number >= 0\n";
        exit_code = 2;
        return std::nullopt;
      }
      const double sigma = *env::parse_double(*v);
      if (arg == "--sigma-random") opt.sigma_random = sigma;
      if (arg == "--sigma-grid") opt.sigma_grid = sigma;
      if (arg == "--sigma-die") opt.sigma_die = sigma;
      if (arg == "--sigma-aging") opt.sigma_aging = sigma;
    } else if (arg == "--surface-points") {
      if (!need_long("--surface-points", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.surface_points = static_cast<int>(parsed);
    } else if (arg == "--checkpoint-dir") {
      const auto v = need_value("--checkpoint-dir");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.checkpoint_dir = *v;
    } else if (arg == "--deadline-ms") {
      if (!need_long("--deadline-ms", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.deadline_ms = parsed;
    } else if (arg == "--max-retries") {
      if (!need_long("--max-retries", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.max_retries = static_cast<int>(parsed);
    } else if (arg == "--backoff-ms") {
      if (!need_long("--backoff-ms", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.backoff_ms = parsed;
    } else if (arg == "--chaos") {
      const auto v = need_value("--chaos");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.chaos_spec = *v;
    } else if (arg == "--kernel") {
      const auto v = need_value("--kernel");
      if (!v || (*v != "dense" && *v != "sparse" && *v != "batch")) {
        std::cerr << "agingrun: --kernel wants dense|sparse|batch\n";
        exit_code = 2;
        return std::nullopt;
      }
      // Exported rather than stored: every layer resolves the kernel through
      // AGINGSIM_KERNEL, so one setenv reaches them all.
      ::setenv("AGINGSIM_KERNEL", v->c_str(), 1);
    } else if (arg == "--batch-guard-ps") {
      const auto v = need_value("--batch-guard-ps");
      if (!v || !env::parse_double(*v).has_value() ||
          *env::parse_double(*v) < 0.0) {
        std::cerr << "agingrun: --batch-guard-ps wants a number >= 0\n";
        exit_code = 2;
        return std::nullopt;
      }
      ::setenv("AGINGSIM_BATCH_GUARD_PS", v->c_str(), 1);
    } else if (arg == "--json") {
      const auto v = need_value("--json");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.json_path = *v;
    } else if (arg == "--trace") {
      const auto v = need_value("--trace");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.trace_path = *v;
    } else if (arg == "--metrics") {
      const auto v = need_value("--metrics");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.metrics_path = *v;
    } else {
      std::cerr << "agingrun: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      exit_code = 2;
      return std::nullopt;
    }
  }
  return opt;
}

void emit_stats(JsonWriter& json, const FaultCampaignStats& s) {
  json.key("trials").value(s.trials);
  json.key("trials_quarantined").value(s.trials_quarantined);
  json.key("ops").value(s.ops);
  json.key("faults_injected").value(s.faults_injected);
  json.key("detected_violations").value(s.detected_violations);
  json.key("escaped_violations").value(s.escaped_violations);
  json.key("uncovered_violations").value(s.uncovered_violations);
  json.key("detection_coverage").value(s.detection_coverage);
  json.key("sdc_ops").value(s.sdc_ops);
  json.key("sdc_per_10k_ops").value(s.sdc_per_10k_ops);
  json.key("masked_faults").value(s.masked_faults);
  json.key("trials_with_sdc").value(s.trials_with_sdc);
  json.key("storm_engagements").value(s.storm_engagements);
  json.key("storm_recoveries").value(s.storm_recoveries);
  json.key("avg_cycles_baseline").value(s.avg_cycles_baseline);
  json.key("avg_cycles_faulty").value(s.avg_cycles_faulty);
  json.key("throughput_degradation").value(s.throughput_degradation);
  json.key("baseline_errors_per_10k_ops")
      .value(s.baseline_errors_per_10k_ops);
}

void emit_run_stats(JsonWriter& json, const RunStats& s) {
  json.key("period_ps").value(s.period_ps);
  json.key("ops").value(s.ops);
  json.key("one_cycle_ratio").value(s.one_cycle_ratio);
  json.key("errors").value(s.errors);
  json.key("errors_per_10k_ops").value(s.errors_per_10k_ops);
  json.key("avg_cycles").value(s.avg_cycles);
  json.key("avg_latency_ps").value(s.avg_latency_ps);
  json.key("avg_power_mw").value(s.avg_power_mw);
  json.key("edp_mw_ns2").value(s.edp_mw_ns2);
}

int write_json(const Options& opt, const std::string& json) {
  if (opt.json_path == "-") {
    std::cout << json << "\n";
    return 0;
  }
  // Same atomicity discipline as the checkpoint store: a run killed while
  // writing its report must not leave a torn JSON behind for cmp(1).
  const std::string tmp = opt.json_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      std::cerr << "agingrun: cannot write " << tmp << "\n";
      return 2;
    }
    out << json << "\n";
  }
  if (std::rename(tmp.c_str(), opt.json_path.c_str()) != 0) {
    std::cerr << "agingrun: cannot rename " << tmp << "\n";
    return 2;
  }
  return 0;
}

int run_tool(const Options& opt) {
  // Flip the recorders before any instrumented code runs; the files are
  // written after the campaign JSON below. AGINGSIM_TRACE/AGINGSIM_METRICS
  // (handled in src/obs/artifacts.cpp) remain usable alongside the flags.
  if (!opt.trace_path.empty()) obs::set_trace_enabled(true);
  if (!opt.metrics_path.empty()) obs::set_metrics_enabled(true);
  runtime::RunnerConfig runner_config = runtime::RunnerConfig::from_env();
  runtime::CancelToken stop;
  const SignalGuard signal_guard(stop);
  runner_config.stop = &stop;
  runner_config.max_retries = opt.max_retries;
  runner_config.deadline = std::chrono::milliseconds(opt.deadline_ms);
  runner_config.backoff_base = std::chrono::milliseconds(opt.backoff_ms);
  if (!opt.chaos_spec.empty()) {
    std::string error;
    const auto chaos = runtime::ChaosPolicy::parse(opt.chaos_spec, &error);
    if (!chaos) {
      std::cerr << "agingrun: " << error << "\n";
      return 2;
    }
    runner_config.chaos = *chaos;
  }

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
                       "agingrun: resume: %zu units restored, %zu stale "
                       "files discarded\n",
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

  if (opt.campaign == "mc") {
    mc::McCampaignConfig mcfg;
    mcfg.width = opt.width;
    mcfg.arches = *parse_arches(opt.arch);
    mcfg.trials = opt.trials;
    mcfg.block = opt.block;
    mcfg.ops = opt.ops_set ? opt.ops : std::size_t{256};
    mcfg.seed = opt.seed;
    mcfg.years = *parse_years(opt.years);
    mcfg.variation.sigma_random = opt.sigma_random;
    mcfg.variation.sigma_grid = opt.sigma_grid;
    mcfg.variation.sigma_die = opt.sigma_die;
    mcfg.sigma_aging = opt.sigma_aging;
    mcfg.strata = opt.strata;
    mcfg.period_frac = opt.period_frac;
    // The default scores each seed block's dies in corner lanes; an
    // explicit --kernel dense|sparse (exported as AGINGSIM_KERNEL above) or
    // a pre-set environment replays every die through its own scalar
    // trace instead — bit-identical, so the artifact doesn't change.
    if (std::getenv("AGINGSIM_KERNEL") != nullptr) {
      mcfg.kernel = SimKernel::kAuto;
    }
    const mc::McCampaign campaign(lib, std::move(mcfg));
    if (!attach_store(campaign.config_digest())) return 3;
    runtime::RobustRunner runner(runner_config);
    std::optional<mc::McResult> result;
    try {
      result = campaign.run(
          mc::McRunOptions{.runner = &runner, .report = &report});
    } catch (const runtime::RunError&) {
      // A signal-interrupted campaign is not an error: completed seed
      // blocks are checkpointed, the JSON says so, exit code is 128+signal.
      if (g_signal == 0) throw;
    }
    if (result.has_value()) {
      mc::McReportOptions report_options;
      report_options.surface_points = opt.surface_points;
      mc::write_mc_json(json, campaign.config(), *result, report_options);
    } else {
      json.key("interrupted").value(true);
    }
  } else if (opt.campaign == "fault") {
    const MultiplierNetlist mult = build_column_bypass_multiplier(opt.width);
    const double crit = critical_path_ps(mult, lib);
    const auto pats = bench::workload(opt.width, opt.ops);

    VlSystemConfig cfg;
    cfg.period_ps = opt.period_frac * crit;
    cfg.ahl.width = opt.width;
    cfg.ahl.skip = 7;
    cfg.razor.metastability_window_ps = 5.0;
    cfg.razor.edge_escape_prob = 0.5;

    json.key("critical_path_ps").value(crit);
    json.key("period_ps").value(cfg.period_ps);
    json.key("ops").value(static_cast<std::uint64_t>(opt.ops));

    FaultCampaignConfig cc;
    cc.kind = opt.kind;
    cc.trials = opt.trials;
    cc.sites_per_trial = opt.sites_per_trial;
    cc.delay_factor = opt.delay_factor;
    cc.seed = opt.seed;
    const FaultCampaign campaign(mult, lib, cfg, cc);
    if (!attach_store(campaign.config_digest(pats))) return 3;
    runtime::RobustRunner runner(runner_config);
    std::optional<FaultCampaignStats> stats;
    try {
      stats = campaign.run(
          pats, CampaignRunOptions{.runner = &runner, .report = &report});
    } catch (const runtime::RunError&) {
      // A signal-interrupted campaign is not an error: completed units are
      // checkpointed, the JSON says so, and the exit code is 128+signal.
      if (g_signal == 0) throw;
    }

    json.key("kind").value(fault_kind_name(cc.kind));
    json.key("configured_trials").value(cc.trials);
    json.key("sites_per_trial").value(cc.sites_per_trial);
    if (cc.kind == FaultKind::kDelayOutlier) {
      json.key("delay_factor").value(cc.delay_factor);
    }
    json.key("seed").value(cc.seed);
    if (stats.has_value()) {
      json.key("stats").begin_object();
      emit_stats(json, *stats);
      json.end_object();
    } else {
      json.key("interrupted").value(true);
    }
  } else {
    // Period sweep: demonstrate the sweep_periods wiring under the same
    // runtime (unit = one sweep point).
    const MultiplierNetlist mult = build_column_bypass_multiplier(opt.width);
    const double crit = critical_path_ps(mult, lib);
    const auto pats = bench::workload(opt.width, opt.ops);
    json.key("critical_path_ps").value(crit);
    json.key("period_ps").value(opt.period_frac * crit);
    json.key("ops").value(static_cast<std::uint64_t>(opt.ops));
    const auto trace = compute_op_trace(mult, lib, pats);
    const std::vector<double> periods =
        bench::linspace(0.45 * crit, 1.05 * crit, opt.sweep_points);
    runtime::Digest digest;
    digest.mix(std::string_view("agingrun-sweep/v1"))
        .mix(opt.width)
        .mix(static_cast<std::uint64_t>(opt.ops))
        .mix(opt.period_frac)
        .mix(opt.sweep_points);
    if (!attach_store(digest.value())) return 3;
    runtime::RobustRunner runner(runner_config);
    const std::vector<RunStats> points =
        bench::sweep_periods(mult, trace, periods, 7, true, 0.0, nullptr,
                             &runner, &report);

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
        emit_run_stats(json, points[i]);
      }
      json.end_object();
    }
    json.end_array();
    if (report.interrupted()) json.key("interrupted").value(true);
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
  if (g_signal != 0) {
    if (!opt.quiet) {
      std::fprintf(stderr,
                   "agingrun: interrupted by signal %d; completed units "
                   "checkpointed, rerun with --resume\n",
                   static_cast<int>(g_signal));
    }
    return 128 + static_cast<int>(g_signal);
  }
  return write_code != 0 ? write_code : exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  int exit_code = 0;
  const auto opt = parse_args(argc, argv, exit_code);
  if (!opt) return exit_code;
  try {
    return run_tool(*opt);
  } catch (const std::exception& e) {
    std::cerr << "agingrun: fatal: " << e.what() << "\n";
    return 70;
  }
}
