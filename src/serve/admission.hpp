#pragma once

// Admission control and graceful degradation for agingd (docs/SERVING.md).
//
// The overload contract: a bounded queue with *explicit rejection* instead
// of unbounded buffering. Offered load past capacity is turned away at the
// door with an `overloaded` error and a retry-after hint, so memory stays
// bounded and the latency of accepted requests stays bounded too — the
// system-level analogue of the paper's adaptive hold logic, which sheds
// precision (two-cycle issue) instead of failing when paths age past the
// clock period.
//
// Degradation tiers, derived from instantaneous queue occupancy:
//
//   tier 0 (occupancy < kShedRefillFrac): everything admitted;
//   tier 1 (>= kShedRefillFrac): queries that would *refill* the
//     aged-state cache (a miss costs an expensive aging recompute) are
//     shed; cache hits still flow — protect the cheap common case;
//   tier 2 (>= kShedBatchFrac): batch campaign work is rejected too;
//   any tier, queue full: every queueable request is rejected.
//
// Control-plane requests never enter the queue at all (see protocol.hpp),
// so health checks answer even at tier 2 with a full queue.
//
// Fairness (two mechanisms, both per client identity — the request's
// `client_id` or the connection's synthetic identity):
//
//   * Token-bucket quotas at the door: each client accrues
//     `quota_rate_per_s` tokens per second up to `quota_burst`; a push
//     with an empty bucket is rejected with `quota_exceeded` and a
//     retry-after hint covering whichever is later: the backlog draining
//     or the next token accruing. Rate 0 (the default) disables quotas.
//   * Round-robin at the exit: within each lane, queued clients are
//     served one request per turn, so a client with 60 queued requests
//     and a client with 1 alternate instead of the flood going first.
//     Normal still drains entirely before batch — a campaign must never
//     head-of-line-block queries.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/serve/protocol.hpp"

namespace agingsim::serve {

/// Tier 1 threshold (queue occupancy fraction): cache refills are shed.
inline constexpr double kShedRefillFrac = 0.5;
/// Tier 2 threshold: batch work is shed too.
inline constexpr double kShedBatchFrac = 0.8;
/// Retry-after hint: ceil(occupancy * avg_service_ms), clamped to
/// [kRetryAfterMinMs, kRetryAfterMaxMs]. avg_service_ms is fed by the
/// workers (EWMA), so the hint tracks the actual drain rate.
inline constexpr std::int64_t kRetryAfterMinMs = 10;
inline constexpr std::int64_t kRetryAfterMaxMs = 2000;
/// Soft cap on remembered client identities; idle empty clients are
/// evicted (least recently seen first) past this point, so a scanner
/// cycling fresh client_ids cannot grow the map without bound.
inline constexpr std::size_t kMaxClients = 256;

struct FairnessConfig {
  /// Tokens per second per client; 0 disables quotas entirely.
  double quota_rate_per_s = 0.0;
  /// Bucket capacity: the largest burst one client can land at once.
  double quota_burst = 32.0;
};

struct AdmissionConfig {
  std::size_t capacity = 64;  ///< queued (not yet running) requests
  FairnessConfig fairness;
};

/// Admission verdict for one request.
struct AdmissionDecision {
  bool admitted = false;
  ErrorCode reason = ErrorCode::kOverloaded;  ///< valid when !admitted
  std::int64_t retry_after_ms = 0;            ///< valid when !admitted
};

/// Pure admission policy: given the queue state, decide. Split from the
/// queue so the tier ladder is unit-testable without threads. Quotas are
/// not part of this function — they depend on per-client bucket state,
/// which lives in AdmissionQueue.
AdmissionDecision admit(const AdmissionConfig& config, Priority priority,
                        bool needs_cache_refill, std::size_t depth,
                        double avg_service_ms);

/// Degradation tier for a given occupancy (0, 1 or 2) — for status
/// reporting and tests.
int degradation_tier(const AdmissionConfig& config, std::size_t depth);

/// Per-client view for `status` reporting and the fairness soak.
struct ClientSnapshot {
  std::string id;
  double tokens = 0.0;        ///< current bucket level (meaningless if
                              ///< quotas are disabled)
  std::size_t queued = 0;     ///< jobs currently waiting in either lane
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_quota = 0;
};

/// The bounded, priority-aware, per-client-fair queue. T is the job type
/// (the server's ticket struct); the queue owns admitted jobs until pop.
/// Thread-safe. Time is injected into try_push so token-bucket behaviour
/// is testable without sleeping.
template <typename T>
class AdmissionQueue {
 public:
  using Clock = std::chrono::steady_clock;

  explicit AdmissionQueue(AdmissionConfig config) : config_(config) {}

  /// Applies quota + admission policy and, when admitted, enqueues under
  /// `client_id`. A closed (draining) queue rejects everything with
  /// kDraining.
  AdmissionDecision try_push(T job, Priority priority, bool needs_cache_refill,
                             std::string_view client_id,
                             Clock::time_point now = Clock::now()) {
    std::unique_lock lk(mutex_);
    if (closed_) {
      return AdmissionDecision{.admitted = false,
                               .reason = ErrorCode::kDraining,
                               .retry_after_ms = 0};
    }
    ClientState& client = client_locked(client_id, now);
    refill_locked(client, now);
    if (config_.fairness.quota_rate_per_s > 0.0 &&
        priority != Priority::kControl && client.tokens < 1.0) {
      ++client.rejected_quota;
      return AdmissionDecision{.admitted = false,
                               .reason = ErrorCode::kQuotaExceeded,
                               .retry_after_ms = quota_hint_locked(client)};
    }
    const AdmissionDecision decision =
        admit(config_, priority, needs_cache_refill, depth_locked(),
              avg_service_ms_);
    if (!decision.admitted) return decision;
    if (config_.fairness.quota_rate_per_s > 0.0 &&
        priority != Priority::kControl) {
      client.tokens -= 1.0;
    }
    ++client.accepted;
    Lane& lane = priority == Priority::kBatch ? batch_ : normal_;
    std::deque<T>& q =
        priority == Priority::kBatch ? client.batch : client.normal;
    if (q.empty()) lane.rotation.push_back(client.id);
    q.push_back(std::move(job));
    ++lane.size;
    lk.unlock();
    cv_.notify_one();
    return decision;
  }

  /// Blocks for the next job (normal lane fully before batch; round-robin
  /// across clients within a lane). Returns nullopt only after close()
  /// once the queue is empty — the worker shutdown signal.
  std::optional<T> pop() {
    std::unique_lock lk(mutex_);
    cv_.wait(lk, [&] { return closed_ || depth_locked() > 0; });
    if (depth_locked() == 0) return std::nullopt;
    Lane& lane = normal_.size > 0 ? normal_ : batch_;
    const bool from_batch = normal_.size == 0;
    // The rotation only holds clients with a non-empty queue in this lane,
    // so the front is always serviceable.
    std::string id = std::move(lane.rotation.front());
    lane.rotation.pop_front();
    ClientState& client = clients_.at(id);
    std::deque<T>& q = from_batch ? client.batch : client.normal;
    T job = std::move(q.front());
    q.pop_front();
    --lane.size;
    if (!q.empty()) lane.rotation.push_back(std::move(id));
    return job;
  }

  /// Workers report a finished request so per-client completion counts in
  /// `status` stay meaningful for the fairness soak.
  void record_done(std::string_view client_id) {
    std::lock_guard lk(mutex_);
    const auto it = clients_.find(std::string(client_id));
    if (it != clients_.end()) ++it->second.completed;
  }

  /// Stops intake (push rejects with kDraining) and wakes blocked workers
  /// once the backlog is gone.
  void close() {
    {
      std::lock_guard lk(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard lk(mutex_);
    return closed_;
  }

  std::size_t depth() const {
    std::lock_guard lk(mutex_);
    return depth_locked();
  }

  int tier() const {
    std::lock_guard lk(mutex_);
    return degradation_tier(config_, depth_locked());
  }

  /// Workers report each completed request's service time; an EWMA feeds
  /// the retry-after hint.
  void record_service_ms(double ms) {
    std::lock_guard lk(mutex_);
    constexpr double kAlpha = 0.2;
    avg_service_ms_ = avg_service_ms_ <= 0.0
                          ? ms
                          : (1.0 - kAlpha) * avg_service_ms_ + kAlpha * ms;
  }

  double avg_service_ms() const {
    std::lock_guard lk(mutex_);
    return avg_service_ms_;
  }

  /// Per-client stats sorted by id (deterministic for status JSON).
  std::vector<ClientSnapshot> clients() const {
    std::lock_guard lk(mutex_);
    std::vector<ClientSnapshot> out;
    out.reserve(clients_.size());
    for (const auto& [id, c] : clients_) {
      out.push_back(ClientSnapshot{
          .id = id,
          .tokens = c.tokens,
          .queued = c.normal.size() + c.batch.size(),
          .accepted = c.accepted,
          .completed = c.completed,
          .rejected_quota = c.rejected_quota,
      });
    }
    std::sort(out.begin(), out.end(),
              [](const ClientSnapshot& a, const ClientSnapshot& b) {
                return a.id < b.id;
              });
    return out;
  }

 private:
  struct ClientState {
    std::string id;
    std::deque<T> normal;
    std::deque<T> batch;
    double tokens = 0.0;
    Clock::time_point last_refill{};
    Clock::time_point last_seen{};
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected_quota = 0;
  };

  /// One priority lane: total queued jobs plus the round-robin rotation of
  /// client ids that currently have jobs queued in it.
  struct Lane {
    std::size_t size = 0;
    std::deque<std::string> rotation;
  };

  std::size_t depth_locked() const { return normal_.size + batch_.size; }

  ClientState& client_locked(std::string_view id, Clock::time_point now) {
    auto it = clients_.find(std::string(id));
    if (it == clients_.end()) {
      evict_idle_locked();
      ClientState fresh;
      fresh.id = std::string(id);
      fresh.tokens = config_.fairness.quota_burst;  // start with a full tank
      fresh.last_refill = now;
      it = clients_.emplace(fresh.id, std::move(fresh)).first;
    }
    it->second.last_seen = now;
    return it->second;
  }

  void refill_locked(ClientState& client, Clock::time_point now) {
    const double rate = config_.fairness.quota_rate_per_s;
    if (rate <= 0.0) return;
    if (now <= client.last_refill) return;
    const double elapsed_s =
        std::chrono::duration<double>(now - client.last_refill).count();
    client.tokens = std::min(config_.fairness.quota_burst,
                             client.tokens + elapsed_s * rate);
    client.last_refill = now;
  }

  /// Retry hint for a quota rejection: whichever is later — the backlog
  /// draining (EWMA hint) or the client's next token accruing.
  std::int64_t quota_hint_locked(const ClientState& client) const {
    const double rate = config_.fairness.quota_rate_per_s;
    const double token_ms =
        rate > 0.0 ? std::max(0.0, (1.0 - client.tokens) / rate * 1000.0)
                   : 0.0;
    const double drain_ms = static_cast<double>(depth_locked()) *
                            std::max(avg_service_ms_, 0.0);
    const auto ms = static_cast<std::int64_t>(
        std::ceil(std::max(token_ms, drain_ms)));
    return std::clamp(ms, kRetryAfterMinMs, kRetryAfterMaxMs);
  }

  /// Drops the least-recently-seen client with nothing queued once the map
  /// reaches kMaxClients. Clients with queued jobs are never evicted (at
  /// most `capacity` of them can exist), so the map stays bounded by
  /// kMaxClients + capacity even under identity churn.
  void evict_idle_locked() {
    if (clients_.size() < kMaxClients) return;
    auto victim = clients_.end();
    for (auto it = clients_.begin(); it != clients_.end(); ++it) {
      const ClientState& c = it->second;
      if (!c.normal.empty() || !c.batch.empty()) continue;
      if (victim == clients_.end() ||
          c.last_seen < victim->second.last_seen) {
        victim = it;
      }
    }
    if (victim != clients_.end()) clients_.erase(victim);
  }

  AdmissionConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Lane normal_;
  Lane batch_;
  std::unordered_map<std::string, ClientState> clients_;
  bool closed_ = false;
  double avg_service_ms_ = 0.0;
};

}  // namespace agingsim::serve
