#pragma once

// Crash-safe execution layer wrapped around exec::parallel_for_indexed
// (docs/ROBUSTNESS.md). A campaign is n independent work units, each
// producing a serialized payload; the runner
//
//  - skips units already present in an attached CheckpointStore (resume),
//  - retries units that fail with a retryable RunError (transient/timeout)
//    under exponential backoff, up to max_retries extra attempts,
//  - quarantines poison units after the retry budget — the unit is
//    recorded as failed in the RunReport and the campaign keeps going
//    (graceful degradation, the harness analogue of the AHL storm
//    fallback) — permanent/unclassified failures quarantine immediately,
//  - arms each attempt's CancelToken on a DeadlineTimer when a deadline is
//    configured: past the deadline the token flips and a cooperative task
//    observes it via poll(), which throws RunError(kTimeout),
//  - persists every completed payload to the checkpoint store the moment
//    it finishes, so a SIGKILL loses at most the in-flight units,
//  - optionally schedules a chaos-simulated crash (ChaosPolicy, action
//    'c') after a deterministic number of fresh units.
//
// Determinism contract: payloads are produced by the caller's task
// function, which must be deterministic per unit; retries, thread counts,
// restores and chaos only decide *whether/when* a unit runs, never what it
// computes — so resumed, chaos-ridden and uninterrupted campaigns emit
// byte-identical results for every non-quarantined unit.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/thread_pool.hpp"
#include "src/runtime/chaos.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/run_error.hpp"

namespace agingsim::runtime {

/// Cooperative cancellation flag shared between a task attempt and whoever
/// may end it: a DeadlineTimer, or a parent token such as the runner's
/// external stop. Long-running tasks call poll() at convenient boundaries.
class CancelToken {
 public:
  /// A token linked to `parent` (null: none) is cancelled with it — at
  /// once, waking its wait_until() — and starts cancelled if the parent
  /// already is. The parent must outlive its children.
  explicit CancelToken(const CancelToken* parent = nullptr);
  ~CancelToken();
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_acquire);
  }
  /// Flips the flag, wakes any wait_until() sleeper immediately and
  /// cancels every linked child.
  void cancel() noexcept;
  /// Throws RunError(kTimeout) once the attempt has been cancelled.
  void poll() const;
  /// Blocks until `deadline` or cancellation, whichever comes first — the
  /// deadline-aware replacement for fixed-tick polling loops (a cancel
  /// ends the wait immediately instead of after the current tick).
  /// Returns without throwing either way; pair with poll().
  void wait_until(std::chrono::steady_clock::time_point deadline) const;

 private:
  std::atomic<bool> flag_{false};
  const CancelToken* parent_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable std::vector<CancelToken*> children_;  // guarded by mutex_
};

/// Cancels CancelTokens at their deadlines from one thread, started by the
/// first arm(). Tokens are held weakly, so a token freed before its
/// deadline just drops out and callers never disarm. Also the drain
/// hammer: cancel_all_at() cancels every token still armed at that time.
class DeadlineTimer {
 public:
  using Clock = std::chrono::steady_clock;

  DeadlineTimer() = default;
  ~DeadlineTimer() { stop(); }
  DeadlineTimer(const DeadlineTimer&) = delete;
  DeadlineTimer& operator=(const DeadlineTimer&) = delete;

  /// Cancels `token` at `deadline`; Clock::time_point::max() leaves it to
  /// cancel_all_at(). Ignored after stop().
  void arm(Clock::time_point deadline, std::weak_ptr<CancelToken> token);
  /// Cancels every token armed and alive at `when` (the earliest call
  /// wins), whatever its own deadline.
  void cancel_all_at(Clock::time_point when);
  /// Joins the thread; tokens still armed stay as they are.
  void stop();

 private:
  struct Entry {
    Clock::time_point deadline;
    std::weak_ptr<CancelToken> token;
  };
  void loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;  // unsorted; the loop scans for the minimum
  Clock::time_point drain_at_ = Clock::time_point::max();
  bool stopping_ = false;
  std::thread thread_;
};

/// Backoff before retry k (1-based): backoff_base * kBackoffGrowth^(k-1),
/// capped at kBackoffCap.
inline constexpr double kBackoffGrowth = 2.0;
inline constexpr std::chrono::milliseconds kBackoffCap{2000};

struct RunnerConfig {
  /// Extra attempts after the first for retryable failures (0 = fail fast).
  int max_retries = 3;
  /// Per-attempt deadline; 0 disables it.
  std::chrono::milliseconds deadline{0};
  std::chrono::milliseconds backoff_base{25};
  ChaosPolicy chaos{};
  /// Optional resume/persist store (not owned). Call load() before run().
  CheckpointStore* checkpoints = nullptr;
  /// Optional pool to fan out on (not owned); null = one-shot pool per run
  /// honoring AGINGSIM_THREADS.
  exec::ThreadPool* pool = nullptr;
  /// Optional external stop signal (not owned): when it flips, units not
  /// yet started are skipped (UnitState::kSkipped) and in-flight attempts,
  /// whose tokens are linked to it, are cancelled cooperatively — each
  /// completed unit has already been persisted, so a stopped campaign
  /// resumes from where it left off. This is how SIGTERM/SIGINT handlers
  /// (tools/agingrun) and the serving daemon's drain/deadline paths
  /// (docs/SERVING.md) stop a campaign without losing work.
  const CancelToken* stop = nullptr;
};

enum class UnitState {
  kComputed,     ///< executed (possibly after retries) this run
  kRestored,     ///< loaded from the checkpoint store, not executed
  kQuarantined,  ///< failed past the retry budget; payload empty
  kSkipped,      ///< not started: the external stop token fired first
};

struct UnitOutcome {
  UnitState state = UnitState::kComputed;
  int attempts = 0;  ///< executions this run (0 for restored units)
  ErrorCategory category = ErrorCategory::kTransient;  ///< quarantine cause
  std::string error;  ///< last failure message (quarantined units)
};

struct RunReport {
  std::vector<UnitOutcome> units;
  std::size_t computed = 0;
  std::size_t restored = 0;
  std::size_t quarantined = 0;
  std::size_t skipped = 0;    ///< not started before the stop token fired
  std::uint64_t retries = 0;  ///< total extra attempts across all units

  bool all_ok() const noexcept { return quarantined == 0 && skipped == 0; }
  /// The run was cut short by the external stop token; completed units are
  /// persisted, so a resumed run picks up the skipped ones.
  bool interrupted() const noexcept { return skipped > 0; }
  /// One line for operators: "12 computed, 3 restored, 1 quarantined, ...".
  std::string summary() const;
};

class RobustRunner {
 public:
  /// task(unit, cancel) returns the unit's serialized payload; it may
  /// throw RunError to classify failures and should poll `cancel` if it
  /// can run past a configured deadline.
  using Task =
      std::function<std::string(std::uint64_t unit, const CancelToken&)>;

  /// Ordered completion-frontier callback: invoked once per unit in strict
  /// unit order (0, 1, 2, …) as the contiguous done-prefix advances —
  /// restored units interleaved with computed ones exactly where they sit.
  /// A unit is reported only after its payload is durable (persisted when
  /// a store is attached), so `unit` is always a safe resume cursor.
  /// Invocations are serialized under an internal mutex but may come from
  /// any pool thread. Quarantined/skipped units stall the frontier: units
  /// past the first failure are never reported (the RunReport still covers
  /// them). Keep the callback cheap — it holds up frontier advancement.
  using Progress = std::function<void(
      std::uint64_t unit, const std::string& payload, UnitState state)>;

  explicit RobustRunner(RunnerConfig config = {});

  /// Runs units [0, n); returns payloads in unit order (empty string for
  /// quarantined units — check the report). Thread-safe per runner
  /// instance in the same sense as ThreadPool::for_each_index: one run()
  /// at a time.
  std::vector<std::string> run(std::size_t n, const Task& task,
                               RunReport* report = nullptr,
                               const Progress& progress = {});

  const RunnerConfig& config() const noexcept { return config_; }

  /// Backoff before retry `retry_index` (1-based) under `config` — exposed
  /// for tests so the schedule is a checked contract, not an accident.
  static std::chrono::milliseconds backoff_delay(const RunnerConfig& config,
                                                 int retry_index);

 private:
  RunnerConfig config_;
};

}  // namespace agingsim::runtime
