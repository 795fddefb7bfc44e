// agingbench — one workload of the layered benchmark per process (README.md).
//
//   agingbench WORKLOAD --seed S --seconds T --out FILE --work-dir DIR
//              [--smoke] [--daemon-trace FILE]
//
// Writes the raw measurements and correctness checks of one run to FILE;
// bench/perf/run.py builds this binary, runs it and derives the metrics.
// Exit codes: 0 = result written (checks may still have failed), 2 = usage
// error, 70 = the workload threw (the result records the failure).

#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench/perf/harness.hpp"
#include "src/core/env.hpp"
#include "src/obs/artifacts.hpp"

namespace {

using namespace agingbench;

int usage(const char* why) {
  std::cerr << "agingbench: " << why
            << "\nusage: agingbench figure_sweep|mc_campaign|fault_firtap|"
               "serve_mixed --seed S --seconds T --out FILE --work-dir DIR"
               " [--smoke] [--daemon-trace FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing workload");
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--seed") {
      const auto v = agingsim::env::parse_u64(value);
      if (!v) return usage("--seed wants an integer >= 0");
      opt.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = agingsim::env::parse_double(value);
      if (!v || !(*v > 0.0)) return usage("--seconds wants a number > 0");
      opt.seconds = *v;
    } else if (arg == "--out") {
      opt.out_path = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else if (arg == "--daemon-trace") {
      opt.daemon_trace = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (opt.out_path.empty() || opt.work_dir.empty()) {
    return usage("--out and --work-dir are required");
  }
  void (*body)(const Options&, Result&) = nullptr;
  if (opt.workload == "figure_sweep") body = run_figure_sweep;
  if (opt.workload == "mc_campaign") body = run_mc_campaign;
  if (opt.workload == "fault_firtap") body = run_fault_firtap;
  if (opt.workload == "serve_mixed") body = run_serve_mixed;
  if (body == nullptr) {
    return usage(("unknown workload " + opt.workload).c_str());
  }

  int rc = 0;
  Result result;
  try {
    std::filesystem::create_directories(opt.work_dir);
    // One-time process state stays out of the first set-up's timing.
    (void)tech();
    (void)pool();
    body(opt, result);
    if (result.peak_rss_kb == 0.0) result.peak_rss_kb = peak_rss_kb();
  } catch (const std::exception& e) {
    check(result, "workload_completed", false, e.what());
    rc = 70;
  }
  try {
    write_result(opt, result);
  } catch (const std::exception& e) {
    std::cerr << "agingbench: " << e.what() << "\n";
    rc = 70;
  }
  // AGINGSIM_TRACE / AGINGSIM_METRICS (traced runs) are written here.
  agingsim::obs::flush_env_artifacts();
  return rc;
}
