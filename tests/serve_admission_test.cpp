// Tests for agingd admission control: the tier ladder, retry-after hints
// and the bounded priority queue (src/serve/admission.hpp).

#include "src/serve/admission.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace agingsim::serve {
namespace {

AdmissionConfig small_config() {
  AdmissionConfig c;
  c.capacity = 10;
  return c;
}

TEST(ServeAdmission, TierLadder) {
  const AdmissionConfig c = small_config();
  EXPECT_EQ(degradation_tier(c, 0), 0);
  EXPECT_EQ(degradation_tier(c, 4), 0);
  EXPECT_EQ(degradation_tier(c, 5), 1);   // >= 50%
  EXPECT_EQ(degradation_tier(c, 7), 1);
  EXPECT_EQ(degradation_tier(c, 8), 2);   // >= 80%
  EXPECT_EQ(degradation_tier(c, 10), 2);
}

TEST(ServeAdmission, Tier0AdmitsEverything) {
  const AdmissionConfig c = small_config();
  EXPECT_TRUE(admit(c, Priority::kNormal, false, 0, 1.0).admitted);
  EXPECT_TRUE(admit(c, Priority::kNormal, true, 0, 1.0).admitted);
  EXPECT_TRUE(admit(c, Priority::kBatch, false, 0, 1.0).admitted);
}

TEST(ServeAdmission, Tier1ShedsCacheRefillsOnly) {
  const AdmissionConfig c = small_config();
  const std::size_t depth = 5;  // tier 1
  EXPECT_TRUE(admit(c, Priority::kNormal, false, depth, 1.0).admitted);
  const AdmissionDecision refill =
      admit(c, Priority::kNormal, true, depth, 1.0);
  EXPECT_FALSE(refill.admitted);
  EXPECT_EQ(refill.reason, ErrorCode::kShedRefill);
  // Batch still flows at tier 1.
  EXPECT_TRUE(admit(c, Priority::kBatch, false, depth, 1.0).admitted);
}

TEST(ServeAdmission, Tier2RejectsBatch) {
  const AdmissionConfig c = small_config();
  const std::size_t depth = 8;  // tier 2
  EXPECT_TRUE(admit(c, Priority::kNormal, false, depth, 1.0).admitted);
  const AdmissionDecision batch =
      admit(c, Priority::kBatch, false, depth, 1.0);
  EXPECT_FALSE(batch.admitted);
  EXPECT_EQ(batch.reason, ErrorCode::kShedBatch);
}

TEST(ServeAdmission, FullQueueRejectsEverything) {
  const AdmissionConfig c = small_config();
  for (const Priority p : {Priority::kNormal, Priority::kBatch}) {
    const AdmissionDecision d = admit(c, p, false, c.capacity, 1.0);
    EXPECT_FALSE(d.admitted);
    EXPECT_EQ(d.reason, ErrorCode::kOverloaded);
    EXPECT_GE(d.retry_after_ms, kRetryAfterMinMs);
  }
}

TEST(ServeAdmission, RetryAfterScalesWithBacklogAndClamps) {
  const AdmissionConfig c = small_config();
  const auto hint = [&](double avg_ms) {
    return admit(c, Priority::kNormal, false, c.capacity, avg_ms)
        .retry_after_ms;
  };
  EXPECT_EQ(hint(0.0), kRetryAfterMinMs);  // no estimate yet: floor
  EXPECT_GE(hint(50.0), hint(5.0));        // slower service: longer
  EXPECT_EQ(hint(1e9), kRetryAfterMaxMs);  // clamped at the ceiling
}

TEST(ServeAdmission, QueueNormalPopsBeforeBatch) {
  AdmissionQueue<int> q(small_config());
  EXPECT_TRUE(q.try_push(1, Priority::kBatch, false, "anon").admitted);
  EXPECT_TRUE(q.try_push(2, Priority::kNormal, false, "anon").admitted);
  EXPECT_TRUE(q.try_push(3, Priority::kBatch, false, "anon").admitted);
  EXPECT_TRUE(q.try_push(4, Priority::kNormal, false, "anon").admitted);
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.pop().value(), 2);  // normals first, FIFO among themselves
  EXPECT_EQ(q.pop().value(), 4);
  EXPECT_EQ(q.pop().value(), 1);  // then batch, FIFO
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(ServeAdmission, ClosedQueueRejectsWithDrainingAndDrainsBacklog) {
  AdmissionQueue<int> q(small_config());
  EXPECT_TRUE(q.try_push(1, Priority::kNormal, false, "anon").admitted);
  q.close();
  const AdmissionDecision d = q.try_push(2, Priority::kNormal, false, "anon");
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, ErrorCode::kDraining);
  // The backlog is still served, then pop() signals shutdown.
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(ServeAdmission, PopBlocksUntilPushOrClose) {
  AdmissionQueue<int> q(small_config());
  std::optional<int> got;
  std::thread consumer([&] { got = q.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(q.try_push(9, Priority::kNormal, false, "anon").admitted);
  consumer.join();
  EXPECT_EQ(got.value(), 9);

  std::thread blocked([&] { got = q.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  blocked.join();
  EXPECT_FALSE(got.has_value());
}

TEST(ServeAdmission, ServiceTimeEwmaFeedsHint) {
  AdmissionQueue<int> q(small_config());
  EXPECT_DOUBLE_EQ(q.avg_service_ms(), 0.0);
  q.record_service_ms(100.0);
  EXPECT_DOUBLE_EQ(q.avg_service_ms(), 100.0);  // first sample seeds
  q.record_service_ms(0.0);
  EXPECT_NEAR(q.avg_service_ms(), 80.0, 1e-9);  // alpha = 0.2
}

// --- tier-transition edges -------------------------------------------------

TEST(ServeAdmission, TierBoundariesAreInclusive) {
  // Exactly 50% and exactly 80% occupancy land *in* the higher tier: the
  // thresholds are >=, not >.
  const AdmissionConfig c = small_config();  // capacity 10
  EXPECT_EQ(degradation_tier(c, 5), 1);      // 5/10 == kShedRefillFrac
  EXPECT_EQ(degradation_tier(c, 8), 2);      // 8/10 == kShedBatchFrac
  EXPECT_FALSE(admit(c, Priority::kNormal, true, 5, 1.0).admitted);
  EXPECT_FALSE(admit(c, Priority::kBatch, false, 8, 1.0).admitted);
  // One below each threshold stays in the lower tier.
  EXPECT_TRUE(admit(c, Priority::kNormal, true, 4, 1.0).admitted);
  EXPECT_TRUE(admit(c, Priority::kBatch, false, 7, 1.0).admitted);
}

TEST(ServeAdmission, TierBoundariesWithOddCapacity) {
  // Non-integer fractional thresholds: capacity 7, 50% = 3.5 requests.
  AdmissionConfig c = small_config();
  c.capacity = 7;
  EXPECT_EQ(degradation_tier(c, 3), 0);  // 3/7 ≈ 0.43 < 0.5
  EXPECT_EQ(degradation_tier(c, 4), 1);  // 4/7 ≈ 0.57 >= 0.5
  EXPECT_EQ(degradation_tier(c, 5), 1);  // 5/7 ≈ 0.71 < 0.8
  EXPECT_EQ(degradation_tier(c, 6), 2);  // 6/7 ≈ 0.86 >= 0.8
}

TEST(ServeAdmission, RetryAfterClampEdges) {
  // The clamp bounds are [10 ms, 2 s], hit exactly.
  const AdmissionConfig c = small_config();
  EXPECT_EQ(kRetryAfterMinMs, 10);
  EXPECT_EQ(kRetryAfterMaxMs, 2000);
  // depth * avg below the floor: the floor stands.
  EXPECT_EQ(admit(c, Priority::kNormal, false, c.capacity, 0.5)
                .retry_after_ms,
            10);
  // Exactly at the ceiling: depth 10 * 200 ms = 2000 ms.
  EXPECT_EQ(admit(c, Priority::kNormal, false, c.capacity, 200.0)
                .retry_after_ms,
            2000);
  // Past the ceiling: still 2000.
  EXPECT_EQ(admit(c, Priority::kNormal, false, c.capacity, 201.0)
                .retry_after_ms,
            2000);
}

TEST(ServeAdmission, NormalDrainsBeforeBatchAcrossClients) {
  // Lane priority holds under mixed per-client queues: every normal job
  // pops before any batch job, even when the batch jobs arrived first.
  AdmissionQueue<int> q(small_config());
  EXPECT_TRUE(q.try_push(100, Priority::kBatch, false, "a").admitted);
  EXPECT_TRUE(q.try_push(200, Priority::kBatch, false, "b").admitted);
  EXPECT_TRUE(q.try_push(1, Priority::kNormal, false, "b").admitted);
  EXPECT_TRUE(q.try_push(2, Priority::kNormal, false, "a").admitted);
  EXPECT_EQ(q.pop().value(), 1);    // normal lane first (b, then a: the
  EXPECT_EQ(q.pop().value(), 2);    // rotation is arrival order)
  EXPECT_EQ(q.pop().value(), 100);  // then batch
  EXPECT_EQ(q.pop().value(), 200);
}

// --- per-client fairness ---------------------------------------------------

using QClock = AdmissionQueue<int>::Clock;

AdmissionConfig quota_config(double rate, double burst) {
  AdmissionConfig c = small_config();
  c.fairness.quota_rate_per_s = rate;
  c.fairness.quota_burst = burst;
  return c;
}

TEST(ServeAdmission, TokenBucketRejectsPastBurst) {
  AdmissionQueue<int> q(quota_config(1.0, 2.0));
  const QClock::time_point t0 = QClock::now();
  // A fresh client starts with a full bucket: `burst` pushes land.
  EXPECT_TRUE(q.try_push(1, Priority::kNormal, false, "a", t0).admitted);
  EXPECT_TRUE(q.try_push(2, Priority::kNormal, false, "a", t0).admitted);
  const AdmissionDecision d =
      q.try_push(3, Priority::kNormal, false, "a", t0);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.reason, ErrorCode::kQuotaExceeded);
  EXPECT_GE(d.retry_after_ms, kRetryAfterMinMs);
  EXPECT_LE(d.retry_after_ms, kRetryAfterMaxMs);
  // Other clients are untouched by a's empty bucket.
  EXPECT_TRUE(q.try_push(9, Priority::kNormal, false, "b", t0).admitted);
}

TEST(ServeAdmission, TokenBucketRefillsWithTime) {
  AdmissionQueue<int> q(quota_config(2.0, 2.0));  // 2 tokens/s
  const QClock::time_point t0 = QClock::now();
  EXPECT_TRUE(q.try_push(1, Priority::kNormal, false, "a", t0).admitted);
  EXPECT_TRUE(q.try_push(2, Priority::kNormal, false, "a", t0).admitted);
  EXPECT_FALSE(q.try_push(3, Priority::kNormal, false, "a", t0).admitted);
  // 600 ms later 1.2 tokens have accrued: one more push fits, two do not.
  const QClock::time_point t1 = t0 + std::chrono::milliseconds(600);
  EXPECT_TRUE(q.try_push(4, Priority::kNormal, false, "a", t1).admitted);
  EXPECT_FALSE(q.try_push(5, Priority::kNormal, false, "a", t1).admitted);
  // Refill caps at burst, never beyond: a long idle stretch buys exactly
  // `burst` pushes.
  const QClock::time_point t2 = t0 + std::chrono::hours(1);
  EXPECT_TRUE(q.try_push(6, Priority::kNormal, false, "a", t2).admitted);
  EXPECT_TRUE(q.try_push(7, Priority::kNormal, false, "a", t2).admitted);
  EXPECT_FALSE(q.try_push(8, Priority::kNormal, false, "a", t2).admitted);
}

TEST(ServeAdmission, QuotaHintCoversTokenAccrual) {
  // With an empty bucket and an idle queue, the hint is the time to the
  // next token: 1 token at 0.5/s = 2000 ms (the clamp ceiling here).
  AdmissionQueue<int> q(quota_config(0.5, 1.0));
  const QClock::time_point t0 = QClock::now();
  EXPECT_TRUE(q.try_push(1, Priority::kNormal, false, "a", t0).admitted);
  const AdmissionDecision d =
      q.try_push(2, Priority::kNormal, false, "a", t0);
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.retry_after_ms, 2000);
}

TEST(ServeAdmission, ControlIsNeverQuotaLimited) {
  AdmissionQueue<int> q(quota_config(1.0, 1.0));
  const QClock::time_point t0 = QClock::now();
  EXPECT_TRUE(q.try_push(1, Priority::kNormal, false, "a", t0).admitted);
  EXPECT_FALSE(q.try_push(2, Priority::kNormal, false, "a", t0).admitted);
  // Control flows with the same identity and an empty bucket, and does not
  // spend tokens either.
  EXPECT_TRUE(q.try_push(3, Priority::kControl, false, "a", t0).admitted);
}

TEST(ServeAdmission, QuotaDisabledByDefault) {
  AdmissionQueue<int> q(small_config());  // rate 0
  const QClock::time_point t0 = QClock::now();
  for (int i = 0; i < 9; ++i) {
    EXPECT_TRUE(q.try_push(i, Priority::kNormal, false, "a", t0).admitted);
  }
}

TEST(ServeAdmission, DeficitRoundRobinInterleavesClients) {
  // A floods 3 requests before B lands 1: the pop order alternates per
  // request instead of draining A first.
  AdmissionQueue<int> q(small_config());
  EXPECT_TRUE(q.try_push(11, Priority::kNormal, false, "a").admitted);
  EXPECT_TRUE(q.try_push(12, Priority::kNormal, false, "a").admitted);
  EXPECT_TRUE(q.try_push(13, Priority::kNormal, false, "a").admitted);
  EXPECT_TRUE(q.try_push(21, Priority::kNormal, false, "b").admitted);
  EXPECT_EQ(q.pop().value(), 11);
  EXPECT_EQ(q.pop().value(), 21);  // b's turn despite a's backlog
  EXPECT_EQ(q.pop().value(), 12);
  EXPECT_EQ(q.pop().value(), 13);
}

TEST(ServeAdmission, ClientSnapshotsTrackOutcomes) {
  AdmissionQueue<int> q(quota_config(1.0, 1.0));
  const QClock::time_point t0 = QClock::now();
  EXPECT_TRUE(q.try_push(1, Priority::kNormal, false, "b", t0).admitted);
  EXPECT_TRUE(q.try_push(2, Priority::kNormal, false, "a", t0).admitted);
  EXPECT_FALSE(q.try_push(3, Priority::kNormal, false, "a", t0).admitted);
  (void)q.pop();
  (void)q.pop();
  q.record_done("a");
  const std::vector<ClientSnapshot> snap = q.clients();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].id, "a");  // sorted by id
  EXPECT_EQ(snap[0].accepted, 1u);
  EXPECT_EQ(snap[0].completed, 1u);
  EXPECT_EQ(snap[0].rejected_quota, 1u);
  EXPECT_EQ(snap[0].queued, 0u);
  EXPECT_EQ(snap[1].id, "b");
  EXPECT_EQ(snap[1].accepted, 1u);
  EXPECT_EQ(snap[1].completed, 0u);
  EXPECT_EQ(snap[1].rejected_quota, 0u);
}

TEST(ServeAdmission, IdleClientsEvictedPastCap) {
  AdmissionQueue<int> q(small_config());
  const QClock::time_point t0 = QClock::now();
  // kMaxClients identities, each seen one second after the last, none
  // with anything left queued.
  for (std::size_t i = 0; i < kMaxClients; ++i) {
    EXPECT_TRUE(q.try_push(static_cast<int>(i), Priority::kNormal, false,
                           std::to_string(i), t0 + std::chrono::seconds(i))
                    .admitted);
    (void)q.pop();
  }
  EXPECT_EQ(q.clients().size(), kMaxClients);
  // One more identity: the least recently seen ("0") is evicted, the map
  // stays at the cap.
  EXPECT_TRUE(q.try_push(-1, Priority::kNormal, false, "new",
                         t0 + std::chrono::seconds(kMaxClients))
                  .admitted);
  std::set<std::string> ids;
  for (const ClientSnapshot& c : q.clients()) ids.insert(c.id);
  EXPECT_EQ(ids.size(), kMaxClients);
  EXPECT_EQ(ids.count("0"), 0u);
  EXPECT_EQ(ids.count("1"), 1u);
  EXPECT_EQ(ids.count("new"), 1u);
}

TEST(ServeAdmission, QueuedClientsSurviveEviction) {
  AdmissionConfig c = small_config();
  c.capacity = kMaxClients + 1;
  AdmissionQueue<int> q(c);
  const QClock::time_point t0 = QClock::now();
  for (std::size_t i = 0; i < kMaxClients; ++i) {
    EXPECT_TRUE(q.try_push(static_cast<int>(i), Priority::kNormal, false,
                           std::to_string(i), t0 + std::chrono::seconds(i))
                    .admitted);
  }
  // Every remembered client still has a queued job, so none can be
  // evicted; one more identity is admitted anyway (kMaxClients is a soft
  // cap bounded by capacity).
  EXPECT_TRUE(q.try_push(-1, Priority::kNormal, false, "new",
                         t0 + std::chrono::seconds(kMaxClients))
                  .admitted);
  EXPECT_EQ(q.clients().size(), kMaxClients + 1);
  for (std::size_t i = 0; i < kMaxClients; ++i) {
    EXPECT_EQ(q.pop().value(), static_cast<int>(i));
  }
  EXPECT_EQ(q.pop().value(), -1);
}

}  // namespace
}  // namespace agingsim::serve
