#pragma once

// The campaign-unit fold (docs/ROBUSTNESS.md "One unit fold"). A campaign
// is n independent units, each computing one typed value: a fault trial's
// RunStats, a Monte-Carlo seed block's records, a sweep point, a
// seven-year row. run_units runs units [0, n) on a RobustRunner, where
// every value round-trips through its codec into the unit's checkpoint
// payload, so restored and freshly computed units fold identically; with
// no runner it runs them on a plain pool. It returns one value per unit,
// empty where the unit was quarantined or skipped by a stop. What a
// missing unit means stays the caller's policy.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/exec/thread_pool.hpp"
#include "src/runtime/robust_runner.hpp"

namespace agingsim::runtime {

template <class T>
struct UnitFold {
  /// Unit u's value; deterministic per unit (RobustRunner's contract).
  std::function<T(std::uint64_t unit)> compute;
  /// The bit-exact payload codec (runner path only).
  std::function<std::string(const T&)> encode;
  std::function<T(const std::string& payload)> decode;
  /// Crash-safe execution; null runs the units on `pool`.
  RobustRunner* runner = nullptr;
  /// Filled with per-unit outcomes on the runner path; may be null.
  RunReport* report = nullptr;
  /// Plain path only; null = a one-shot pool honoring AGINGSIM_THREADS.
  exec::ThreadPool* pool = nullptr;
  /// Runner path only: each unit's decoded value in strict unit order as
  /// the completion frontier advances (RobustRunner::Progress);
  /// serialized, but called from pool threads.
  std::function<void(std::uint64_t unit, const T& value)> progress = {};
};

/// Execution lanes of the pool run_units runs the units of a fold with
/// this `runner` and no pool of its own on: the runner's pool, else a
/// one-shot pool's (exec::default_thread_count()).
inline int execution_lanes(const RobustRunner* runner) {
  const exec::ThreadPool* pool =
      runner != nullptr ? runner->config().pool : nullptr;
  return pool != nullptr ? pool->thread_count()
                         : exec::default_thread_count();
}

template <class T>
std::vector<std::optional<T>> run_units(std::size_t n,
                                        const UnitFold<T>& fold) {
  std::vector<std::optional<T>> values(n);
  if (fold.runner == nullptr) {
    const auto run = [&](std::size_t unit) {
      values[unit] = fold.compute(unit);
    };
    if (fold.pool != nullptr) {
      fold.pool->for_each_index(n, run);
    } else {
      exec::ThreadPool().for_each_index(n, run);
    }
    return values;
  }
  RunReport local_report;
  RunReport& report = fold.report != nullptr ? *fold.report : local_report;
  RobustRunner::Progress frontier;
  if (fold.progress) {
    // The runner's frontier mutex orders these writes before run() returns.
    frontier = [&](std::uint64_t unit, const std::string& payload,
                   UnitState) {
      values[unit] = fold.decode(payload);
      fold.progress(unit, *values[unit]);
    };
  }
  const std::vector<std::string> payloads = fold.runner->run(
      n,
      [&](std::uint64_t unit, const CancelToken&) {
        return fold.encode(fold.compute(unit));
      },
      &report, frontier);
  for (std::size_t unit = 0; unit < n; ++unit) {
    const UnitState state = report.units[unit].state;
    if (!values[unit] &&
        (state == UnitState::kComputed || state == UnitState::kRestored)) {
      values[unit] = fold.decode(payloads[unit]);
    }
  }
  return values;
}

/// Throws RunError(kTransient) when a stop token cut the run short: the
/// completed units are checkpointed, so the right move is a resume, not a
/// fold over holes. `who` names the campaign in the message.
inline void throw_if_interrupted(const RunReport& report,
                                 std::string_view who) {
  if (!report.interrupted()) return;
  throw RunError(ErrorCategory::kTransient,
                 std::string(who) + ": interrupted before completion (" +
                     std::to_string(report.skipped) +
                     " units skipped); resume to continue");
}

}  // namespace agingsim::runtime
