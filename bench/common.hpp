#pragma once

// Shared scaffolding for the bench binaries. Each bench regenerates one of
// the paper's tables or figures; this header centralizes the calibrated
// technology library, the canonical workloads, and the sweep helpers so the
// binaries stay small and consistent.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <iostream>
#include <string>
#include <vector>

#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/core/env.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/exec/thread_pool.hpp"
#include "src/obs/artifacts.hpp"
#include "src/obs/trace.hpp"
#include "src/report/table.hpp"
#include "src/runtime/fold.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/stats_codec.hpp"
#include "src/workload/patterns.hpp"

namespace agingsim::bench {

/// Calibrated library: 16x16 column-bypassing critical path = 1.88 ns, the
/// paper's Fig. 5 anchor. Built once per process.
inline const TechLibrary& tech() {
  static const TechLibrary t = calibrated_tech_library(1880.0);
  return t;
}

/// Canonical seeded workload: `count` uniform operand pairs.
inline std::vector<OperandPattern> workload(int width, std::size_t count,
                                            std::uint64_t seed = 0xA61A5) {
  Rng rng(seed);
  return uniform_patterns(rng, width, count);
}

/// Number of simulated operations per sweep point, overridable for quick
/// runs via AGINGSIM_BENCH_OPS. Strict parse (src/core/env.hpp): the old
/// std::atol accepted "12abc" as 12 silently; now a malformed value warns
/// once and the default stands.
inline std::size_t default_ops() {
  return static_cast<std::size_t>(env::long_or("AGINGSIM_BENCH_OPS", 10000, 1));
}

inline double ns(double ps) { return ps * 1e-3; }

/// `points` evenly spaced values over [lo, hi], endpoints included. A
/// single point degenerates to {lo} (not a 0/0 NaN); zero or negative
/// point counts return an empty vector.
inline std::vector<double> linspace(double lo, double hi, int points) {
  if (points <= 0) return {};
  if (points == 1) return {lo};
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    out.push_back(lo + (hi - lo) * static_cast<double>(i) /
                           static_cast<double>(points - 1));
  }
  return out;
}

/// Runs a variable-latency system over `trace` at each period — one
/// independent simulator per sweep point, one unit of the shared fold
/// (src/runtime/fold.hpp) on `pool` (or a one-shot pool honoring
/// AGINGSIM_THREADS when none is given). Results come back in period
/// order and are byte-identical for any thread count. With a `runner`,
/// each sweep point becomes a crash-safe work unit (retry/backoff,
/// watchdog, checkpoint/resume — docs/ROBUSTNESS.md); quarantined points
/// come back as default RunStats (inspect the runner's RunReport to tell
/// them apart).
inline std::vector<RunStats> sweep_periods(
    const MultiplierNetlist& mult, std::span<const OpTrace> trace,
    std::span<const double> periods_ps, int skip, bool adaptive,
    double mean_dvth_v = 0.0, exec::ThreadPool* pool = nullptr,
    runtime::RobustRunner* runner = nullptr,
    runtime::RunReport* report = nullptr) {
  const auto points = runtime::run_units<RunStats>(
      periods_ps.size(),
      {.compute = [&](std::uint64_t i) {
         VlSystemConfig cfg;
         cfg.period_ps = periods_ps[i];
         cfg.ahl.width = mult.width;
         cfg.ahl.skip = skip;
         cfg.ahl.adaptive = adaptive;
         VariableLatencySystem sys(mult, tech(), cfg);
         return sys.run(trace, mean_dvth_v);
       },
       .encode = runtime::encode_run_stats,
       .decode = runtime::decode_run_stats,
       .runner = runner,
       .report = report,
       .pool = pool});
  std::vector<RunStats> out;
  out.reserve(points.size());
  for (const std::optional<RunStats>& point : points) {
    out.push_back(point.value_or(RunStats{}));
  }
  return out;
}

/// The three architectures at one width, with critical paths and gate-level
/// traces over the canonical workload — the shared setup of the Fig. 13-24
/// sweeps.
struct ArchSet {
  MultiplierNetlist am, cb, rb;
  double am_crit_ps, cb_crit_ps, rb_crit_ps;
  std::vector<OpTrace> am_trace, cb_trace, rb_trace;
};

inline ArchSet make_arch_set(int width, std::size_t ops,
                             bool with_am_trace = false) {
  ArchSet s{build_array_multiplier(width),
            build_column_bypass_multiplier(width),
            build_row_bypass_multiplier(width),
            0.0,
            0.0,
            0.0,
            {},
            {},
            {}};
  s.am_crit_ps = critical_path_ps(s.am, tech());
  s.cb_crit_ps = critical_path_ps(s.cb, tech());
  s.rb_crit_ps = critical_path_ps(s.rb, tech());
  const auto pats = workload(width, ops);
  s.cb_trace = compute_op_trace(s.cb, tech(), pats);
  s.rb_trace = compute_op_trace(s.rb, tech(), pats);
  if (with_am_trace) s.am_trace = compute_op_trace(s.am, tech(), pats);
  return s;
}

/// Standard preamble so every bench's output is self-describing.
inline void preamble(const char* id, const char* what) {
  std::printf("############################################################\n");
  std::printf("## %s — %s\n", id, what);
  std::printf("## tech: 32nm-class, calibrated so CB16 critical path = 1.88 ns"
              " (paper Fig. 5)\n");
  std::printf("############################################################\n\n");
}

/// Shared top-level exception barrier for every bench binary. An uncaught
/// throw in main would std::terminate and lose the diagnostic; routing
/// through here prints the what() to stderr and exits 70 (EX_SOFTWARE)
/// so CI and scripts see a classified failure. Use via AGINGSIM_BENCH_MAIN.
inline int guarded_main(const char* id, int (*bench_body)()) noexcept {
  int rc = 70;
  try {
    obs::TraceSpan span(id);  // bench ids are string literals
    rc = bench_body();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: fatal: %s\n", id, e.what());
  } catch (...) {
    std::fprintf(stderr, "%s: fatal: unknown exception\n", id);
  }
  // Flush AGINGSIM_TRACE / AGINGSIM_METRICS now rather than relying only on
  // the atexit hook — artifacts survive even an abrupt exit path after this
  // point, and appear as soon as the bench body is done.
  obs::flush_env_artifacts();
  return rc;
}

// NOLINTNEXTLINE(cppcoreguidelines-macro-usage)
#define AGINGSIM_BENCH_MAIN(id, body) \
  int main() { return ::agingsim::bench::guarded_main(id, body); }

}  // namespace agingsim::bench
