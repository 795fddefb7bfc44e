#pragma once

// Shared plumbing of the agingbench workloads: options, wall clocks, seeded
// input streams and the result document run.py turns into metrics.
//
// Every workload has the same shape: set up setup_count() times (each
// set-up timed, the last one kept), run one untimed warm-up job whose
// output is the reference, run an untimed verify phase against it, then run
// identical jobs back to back until --seconds have passed. Each job's output digest must equal the
// warm-up's, so every timed job is also checked.

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/exec/thread_pool.hpp"
#include "src/netlist/techlib.hpp"
#include "src/obs/trace.hpp"

namespace agingbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  /// Tiny sizes, so a whole pass takes seconds (the unit tests use it).
  bool smoke = false;
  std::string out_path;
  /// Scratch directory for checkpoint stores and the daemon socket. Must
  /// lie inside the checkout; relative paths keep socket paths short.
  std::string work_dir;
  /// serve_mixed traced runs: the measured agingd writes its trace here.
  std::string daemon_trace;
};

/// An independent stream seed for one input of a workload, so every input
/// (operands, stress patterns, fault sites, request mix) is a pure function
/// of --seed and the tag naming that input.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag);

/// One job: a fixed amount of work whose output digest is compared with the
/// warm-up job's.
struct Job {
  double wall_s = 0.0;
  /// Ops (figure_sweep), trials (campaigns) or requests within their SLO
  /// (serve_mixed) completed.
  std::uint64_t work = 0;
  std::uint64_t attempted = 0;  ///< units attempted
  std::uint64_t failed = 0;     ///< units quarantined or answered not-ok
  std::uint64_t digest = 0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Result {
  std::vector<double> setup_s;
  Job warmup;             ///< reference output; not timed
  std::vector<Job> jobs;  ///< the timed jobs
  double peak_rss_kb = 0.0;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, double>> numbers;
  std::vector<std::pair<std::string, std::vector<double>>> series;
  /// Complete JSON documents spliced into the result (metrics snapshots,
  /// daemon replies).
  std::vector<std::pair<std::string, std::string>> documents;
};

void check(Result& r, std::string name, bool ok, std::string detail = {});

/// Set-up repetitions of one run; `setup_s` is their median.
inline int setup_count(const Options& opt) { return opt.smoke ? 1 : 5; }

/// The calibrated library every workload uses (CB16 critical path 1.88 ns,
/// the paper's Fig. 5 anchor).
const agingsim::TechLibrary& tech();

/// The process-wide pool, sized by AGINGSIM_THREADS.
agingsim::exec::ThreadPool& pool();

/// VmHWM of `pid` (0 = this process) in KiB, or 0 when unreadable.
double peak_rss_kb(int pid = 0);

/// Appends the recorders' metrics snapshot as document `key` when metrics
/// recording is on (traced runs); run.py takes before/after deltas.
void snapshot_metrics(Result& r, const char* key);

/// Pins the calling thread to the `index`-th CPU it may run on (round
/// robin) for its lifetime, then restores its affinity. A negative index
/// pins nothing.
class CpuPin {
 public:
  explicit CpuPin(int index);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t saved_{};
};

/// Times one set-up repetition. Repetition i runs pinned to the i-th CPU:
/// on a shared host one core can run ~30 % slow for seconds at a time, and
/// repetitions back to back on one core would all share its luck, so the
/// median would not be steadier than one sample. Set-ups that start a child
/// process pass `pin = false`, since the child would inherit the pin.
template <typename F>
auto timed_setup(Result& r, F&& setup, bool pin = true) {
  const CpuPin pinned(pin ? static_cast<int>(r.setup_s.size()) : -1);
  agingsim::obs::TraceSpan span("bench.setup", r.setup_s.size());
  const Clock::time_point t0 = Clock::now();
  auto state = setup();
  r.setup_s.push_back(seconds_since(t0));
  return state;
}

/// Runs `job()` back to back until `seconds` have passed (at least
/// once), then checks every job reproduced the warm-up's digest.
template <typename F>
void run_jobs(const Options& opt, Result& r, F&& job) {
  const Clock::time_point t0 = Clock::now();
  do {
    agingsim::obs::TraceSpan span("bench.job", r.jobs.size());
    r.jobs.push_back(job());
  } while (seconds_since(t0) < opt.seconds);
  std::size_t mismatched = 0;
  for (const Job& j : r.jobs) mismatched += j.digest != r.warmup.digest;
  check(r, "timed_jobs_match_warmup", mismatched == 0,
        std::to_string(mismatched) + " of " + std::to_string(r.jobs.size()) +
            " jobs differ");
}

void write_result(const Options& opt, const Result& r);

void run_figure_sweep(const Options& opt, Result& r);
void run_mc_campaign(const Options& opt, Result& r);
void run_fault_firtap(const Options& opt, Result& r);
void run_serve_mixed(const Options& opt, Result& r);

}  // namespace agingbench
