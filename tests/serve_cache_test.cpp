// Tests for the byte-budgeted LRU cache of aged corners
// (src/serve/cache.hpp).

#include "src/serve/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

namespace agingsim::serve {
namespace {

// A corner whose byte_size() lands near `approx_bytes` (sizeof(AgedCorner)
// plus the trace payload).
std::shared_ptr<const AgedCorner> corner_of_bytes(std::size_t approx_bytes,
                                                  double tag) {
  auto c = std::make_shared<AgedCorner>();
  c->mean_dvth_v = tag;
  const std::size_t base = sizeof(AgedCorner);
  const std::size_t payload = approx_bytes > base ? approx_bytes - base : 0;
  c->trace.assign(payload / sizeof(OpTrace), OpTrace{.delay_ps = tag});
  return c;
}

TEST(ServeCache, MissThenHit) {
  AgedStateCache cache(1 << 20);
  EXPECT_EQ(cache.get(1), nullptr);
  cache.put(1, corner_of_bytes(1024, 0.5));
  const auto hit = cache.get(1);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->mean_dvth_v, 0.5);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ServeCache, ContainsDoesNotTouchCountersOrRecency) {
  AgedStateCache cache(8192);
  cache.put(1, corner_of_bytes(2048, 1.0));
  cache.put(2, corner_of_bytes(2048, 2.0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(99));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  // contains(1) must not have promoted key 1: fill the budget and check
  // that 1 (the LRU entry) is the one evicted.
  cache.put(3, corner_of_bytes(6000, 3.0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
}

TEST(ServeCache, EvictsLeastRecentlyUsedToBudget) {
  AgedStateCache cache(8192);
  cache.put(1, corner_of_bytes(3000, 1.0));
  cache.put(2, corner_of_bytes(3000, 2.0));
  // Touch 1 so 2 becomes the LRU entry.
  EXPECT_NE(cache.get(1), nullptr);
  cache.put(3, corner_of_bytes(3000, 3.0));  // must evict 2, not 1
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(3));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.bytes, s.budget_bytes);
}

TEST(ServeCache, OversizeEntryIsDroppedNotWedgedIn) {
  AgedStateCache cache(4096);
  cache.put(1, corner_of_bytes(1024, 1.0));
  cache.put(2, corner_of_bytes(64 * 1024, 2.0));  // larger than the budget
  EXPECT_FALSE(cache.contains(2));
  // The resident entry was not sacrificed for an uncacheable one.
  EXPECT_TRUE(cache.contains(1));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.rejected_oversize, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ServeCache, ReplaceUpdatesBytesAndValue) {
  AgedStateCache cache(1 << 20);
  cache.put(7, corner_of_bytes(4096, 1.0));
  const std::size_t before = cache.stats().bytes;
  cache.put(7, corner_of_bytes(1024, 9.0));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_LT(s.bytes, before);
  EXPECT_DOUBLE_EQ(cache.get(7)->mean_dvth_v, 9.0);
}

TEST(ServeCache, ClearResetsContentsButKeepsBudget) {
  AgedStateCache cache(4096);
  cache.put(1, corner_of_bytes(1024, 1.0));
  cache.clear();
  EXPECT_FALSE(cache.contains(1));
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.budget_bytes, 4096u);
}

TEST(ServeCache, EvictedCornerStaysIntactWhileHeld) {
  AgedStateCache cache(8192);
  const auto stored = corner_of_bytes(3000, 1.5);
  const std::size_t ops = stored->trace.size();
  cache.put(1, stored);
  // The budget counts the corner as it did when entries were copies.
  EXPECT_EQ(cache.stats().bytes, stored->byte_size());
  auto held = cache.get(1);
  ASSERT_EQ(held, stored);  // shared, not copied
  // Evict key 1 entirely: it leaves the budget, but the held corner must
  // stay intact until its reader lets go.
  cache.put(2, corner_of_bytes(7000, 2.0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.stats().bytes, cache.get(2)->byte_size());
  EXPECT_DOUBLE_EQ(held->mean_dvth_v, 1.5);
  ASSERT_EQ(held->trace.size(), ops);
  for (const OpTrace& op : held->trace) EXPECT_DOUBLE_EQ(op.delay_ps, 1.5);
}

}  // namespace
}  // namespace agingsim::serve
