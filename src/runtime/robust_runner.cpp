#include "src/runtime/robust_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace agingsim::runtime {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kPersistBoundsUs[] = {100.0, 1000.0, 10000.0, 100000.0,
                                       1000000.0};

struct RunnerMetrics {
  const obs::Counter& units_computed = obs::counter("runner.units_computed");
  const obs::Counter& units_restored = obs::counter("runner.units_restored");
  const obs::Counter& units_quarantined =
      obs::counter("runner.units_quarantined");
  const obs::Counter& retries = obs::counter("runner.retries");
  const obs::Counter& backoff_waits = obs::counter("runner.backoff_waits");
  const obs::Counter& backoff_wait_ms =
      obs::counter("runner.backoff_wait_ms");
  // Wall-time driven: whether a deadline fires depends on scheduling.
  const obs::Counter& watchdog_fires =
      obs::counter("runner.watchdog_fires", /*deterministic=*/false);
  const obs::Histogram& persist_us = obs::histogram(
      "runner.persist_us", kPersistBoundsUs, /*deterministic=*/false);
};

const RunnerMetrics& runner_metrics() {
  static const RunnerMetrics m;
  return m;
}

void apply_chaos(const ChaosPolicy& chaos, std::uint64_t unit, int attempt,
                 const CancelToken& cancel) {
  switch (chaos.decide(unit, attempt)) {
    case ChaosAction::kNone:
      return;
    case ChaosAction::kThrowTransient:
      throw RunError(ErrorCategory::kTransient,
                     "chaos: injected transient fault (unit " +
                         std::to_string(unit) + ", attempt " +
                         std::to_string(attempt) + ")");
    case ChaosAction::kThrowPermanent:
      throw RunError(ErrorCategory::kPermanent,
                     "chaos: injected permanent fault (unit " +
                         std::to_string(unit) + ")");
    case ChaosAction::kStall: {
      // Deadline-aware: one blocking wait that a cancel() ends immediately,
      // instead of a fixed-tick poll loop that overshoots the deadline by
      // up to a tick and wakes once per tick for the whole stall.
      cancel.wait_until(Clock::now() + chaos.stall_duration);
      cancel.poll();  // a deadline or stop cancellation ends the stall
      return;
    }
  }
}

}  // namespace

CancelToken::CancelToken(const CancelToken* parent) : parent_(parent) {
  if (parent_ == nullptr) return;
  // Under the parent's lock a cancel() either has already flipped its flag
  // (seen here) or has yet to walk its children (and will find this one).
  std::lock_guard lk(parent_->mutex_);
  if (parent_->cancelled()) {
    flag_.store(true, std::memory_order_release);
  } else {
    parent_->children_.push_back(this);
  }
}

CancelToken::~CancelToken() {
  if (parent_ == nullptr) return;
  std::lock_guard lk(parent_->mutex_);
  std::erase(parent_->children_, this);
}

void CancelToken::cancel() noexcept {
  flag_.store(true, std::memory_order_release);
  // Taking the lock before notifying orders the store against a sleeper's
  // predicate re-check: a wait_until that just saw the flag clear is
  // guaranteed to observe the notification. It also keeps each child alive
  // (its destructor takes this lock) while it is cancelled.
  std::lock_guard lk(mutex_);
  cv_.notify_all();
  for (CancelToken* child : children_) child->cancel();
}

void CancelToken::poll() const {
  if (cancelled()) {
    throw RunError(ErrorCategory::kTimeout,
                   "task cancelled by watchdog deadline");
  }
}

void CancelToken::wait_until(
    std::chrono::steady_clock::time_point deadline) const {
  std::unique_lock lk(mutex_);
  cv_.wait_until(lk, deadline, [this] { return cancelled(); });
}

void DeadlineTimer::arm(Clock::time_point deadline,
                        std::weak_ptr<CancelToken> token) {
  std::lock_guard lk(mutex_);
  if (stopping_) return;
  entries_.push_back(Entry{deadline, std::move(token)});
  if (!thread_.joinable()) thread_ = std::thread([this] { loop(); });
  cv_.notify_one();
}

void DeadlineTimer::cancel_all_at(Clock::time_point when) {
  std::lock_guard lk(mutex_);
  drain_at_ = std::min(drain_at_, when);
  cv_.notify_one();
}

void DeadlineTimer::stop() {
  {
    std::lock_guard lk(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DeadlineTimer::loop() {
  std::unique_lock lk(mutex_);
  while (!stopping_) {
    // Expired, drained and freed entries drop out; the next wake is the
    // earliest surviving deadline or the drain time. The lock is held from
    // scan to wait, so no arm() notification can slip through unseen.
    const Clock::time_point now = Clock::now();
    const bool drain = drain_at_ <= now;
    if (drain) drain_at_ = Clock::time_point::max();
    Clock::time_point next = drain_at_;
    std::erase_if(entries_, [&](const Entry& e) {
      const std::shared_ptr<CancelToken> token = e.token.lock();
      if (token == nullptr) return true;
      if (drain || e.deadline <= now) {
        token->cancel();
        return true;
      }
      next = std::min(next, e.deadline);
      return false;
    });
    if (next == Clock::time_point::max()) {
      cv_.wait(lk);
    } else {
      cv_.wait_until(lk, next);
    }
  }
}

std::string RunReport::summary() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "units: %zu computed, %zu restored, %zu quarantined, "
                "%zu skipped of %zu; retries: %llu",
                computed, restored, quarantined, skipped, units.size(),
                static_cast<unsigned long long>(retries));
  return buf;
}

RobustRunner::RobustRunner(RunnerConfig config) : config_(config) {
  if (config_.max_retries < 0) {
    throw RunError(ErrorCategory::kPermanent,
                   "RobustRunner: max_retries must be >= 0");
  }
}

std::chrono::milliseconds RobustRunner::backoff_delay(
    const RunnerConfig& config, int retry_index) {
  const double ms =
      static_cast<double>(config.backoff_base.count()) *
      std::pow(kBackoffGrowth, static_cast<double>(retry_index - 1));
  const double capped =
      std::min(ms, static_cast<double>(kBackoffCap.count()));
  return std::chrono::milliseconds(static_cast<long long>(capped));
}

std::vector<std::string> RobustRunner::run(std::size_t n, const Task& task,
                                           RunReport* report,
                                           const Progress& progress) {
  obs::TraceSpan run_span("runner.run", n);
  RunReport local;
  RunReport& rep = report != nullptr ? *report : local;
  rep = RunReport{};
  rep.units.assign(n, UnitOutcome{});
  std::vector<std::string> payloads(n);

  CheckpointStore* store = config_.checkpoints;
  std::vector<std::uint64_t> pending;
  pending.reserve(n);
  for (std::uint64_t unit = 0; unit < n; ++unit) {
    std::optional<std::string> restored;
    if (store != nullptr) restored = store->restore(unit);
    if (restored.has_value()) {
      payloads[unit] = std::move(*restored);
      rep.units[unit].state = UnitState::kRestored;
    } else {
      pending.push_back(unit);
    }
  }

  // Ordered progress frontier. Completions arrive in any order from the
  // pool; the callback contract is strict unit order, so each completion
  // marks its unit done and drains the contiguous prefix under one mutex.
  // The mutex also publishes payloads[] writes from completing threads to
  // the draining thread.
  std::mutex progress_mutex;
  std::vector<char> unit_done;
  std::uint64_t frontier = 0;
  const auto drain_frontier_locked = [&] {
    while (frontier < n && unit_done[frontier] != 0) {
      progress(frontier, payloads[frontier], rep.units[frontier].state);
      ++frontier;
    }
  };
  if (progress) {
    unit_done.assign(n, 0);
    for (std::uint64_t unit = 0; unit < n; ++unit) {
      if (rep.units[unit].state == UnitState::kRestored) unit_done[unit] = 1;
    }
    // A resumed campaign replays its restored prefix immediately — this is
    // the "re-attach and stream the tail" path of docs/SERVING.md (the
    // caller filters against its resume cursor).
    std::lock_guard lk(progress_mutex);
    drain_frontier_locked();
  }
  const auto report_done = [&](std::uint64_t unit) {
    if (!progress) return;
    std::lock_guard lk(progress_mutex);
    unit_done[unit] = 1;
    drain_frontier_locked();
  };

  // Chaos crash scheduling: die (std::_Exit) after a deterministic number
  // of freshly persisted units. Armed only with a checkpoint store — a
  // crash without checkpoints would just discard the campaign.
  const std::uint64_t crash_after =
      store != nullptr ? config_.chaos.crash_after_units(n - pending.size())
                       : 0;
  std::atomic<std::uint64_t> fresh_done{0};

  DeadlineTimer timer;
  const auto stop_requested = [&] {
    return config_.stop != nullptr && config_.stop->cancelled();
  };
  // An attempt token cancelled while the stop token is not was cancelled
  // by its own deadline.
  const auto end_attempt = [&](const CancelToken& cancel) {
    if (cancel.cancelled() && !stop_requested()) {
      runner_metrics().watchdog_fires.add();
    }
  };
  const auto run_unit = [&](std::size_t pending_index) {
    const std::uint64_t unit = pending[pending_index];
    obs::TraceSpan unit_span("runner.unit", unit);
    UnitOutcome& outcome = rep.units[unit];
    if (stop_requested()) {
      outcome.state = UnitState::kSkipped;
      return;
    }
    for (int attempt = 0;; ++attempt) {
      const auto cancel = std::make_shared<CancelToken>(config_.stop);
      if (config_.deadline.count() > 0) {
        timer.arm(Clock::now() + config_.deadline, cancel);
      }
      ++outcome.attempts;
      try {
        apply_chaos(config_.chaos, unit, attempt, *cancel);
        std::string payload = task(unit, *cancel);
        end_attempt(*cancel);
        payloads[unit] = std::move(payload);
        outcome.state = UnitState::kComputed;
        if (store != nullptr) {
          try {
            const Clock::time_point t0 = Clock::now();
            {
              obs::TraceSpan persist_span("runner.persist", unit);
              store->persist(unit, payloads[unit]);
            }
            runner_metrics().persist_us.observe(
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count());
          } catch (const RunError& e) {
            // A dead disk must not kill a finished computation: the run
            // continues without resumability. A failed write loses this
            // unit's; a failed sync disables checkpointing for the rest of
            // the run, so every later unit warns here too.
            std::fprintf(stderr, "checkpoint: persist failed: %s\n",
                         e.what());
          }
          if (crash_after != 0 &&
              fresh_done.fetch_add(1, std::memory_order_relaxed) + 1 >=
                  crash_after) {
            std::_Exit(kCrashExitCode);
          }
        }
        report_done(unit);
        return;
      } catch (const RunError& e) {
        end_attempt(*cancel);
        if (stop_requested()) {
          // The cancellation came from the external stop, not a failure of
          // this unit: record it as skipped so a resume re-runs it.
          outcome.state = UnitState::kSkipped;
          return;
        }
        if (e.retryable() && attempt < config_.max_retries) {
          const std::chrono::milliseconds delay =
              backoff_delay(config_, attempt + 1);
          runner_metrics().backoff_waits.add();
          runner_metrics().backoff_wait_ms.add(
              static_cast<std::uint64_t>(delay.count()));
          std::this_thread::sleep_for(delay);
          continue;
        }
        outcome.state = UnitState::kQuarantined;
        outcome.category = e.category();
        outcome.error = e.what();
        return;
      } catch (const std::exception& e) {
        end_attempt(*cancel);
        outcome.state = UnitState::kQuarantined;
        outcome.category = ErrorCategory::kPermanent;
        outcome.error = e.what();
        return;
      }
    }
  };

  if (config_.pool != nullptr) {
    config_.pool->for_each_index(pending.size(), run_unit);
  } else {
    exec::ThreadPool pool;
    pool.for_each_index(pending.size(), run_unit);
  }

  for (const UnitOutcome& outcome : rep.units) {
    switch (outcome.state) {
      case UnitState::kComputed: ++rep.computed; break;
      case UnitState::kRestored: ++rep.restored; break;
      case UnitState::kQuarantined: ++rep.quarantined; break;
      case UnitState::kSkipped: ++rep.skipped; break;
    }
    if (outcome.attempts > 1) {
      rep.retries += static_cast<std::uint64_t>(outcome.attempts - 1);
    }
  }
  if (obs::metrics_enabled()) {
    const RunnerMetrics& m = runner_metrics();
    m.units_computed.add(rep.computed);
    m.units_restored.add(rep.restored);
    m.units_quarantined.add(rep.quarantined);
    m.retries.add(rep.retries);
  }
  return payloads;
}

}  // namespace agingsim::runtime
