#include "src/serve/cache.hpp"

#include <utility>

#include "src/obs/metrics.hpp"

namespace agingsim::serve {
namespace {

struct CacheMetrics {
  const obs::Counter& hits = obs::counter("serve.cache_hits");
  const obs::Counter& misses = obs::counter("serve.cache_misses");
  const obs::Counter& insertions = obs::counter("serve.cache_insertions");
  const obs::Counter& evictions = obs::counter("serve.cache_evictions");
  // Occupancy is scheduling-dependent under concurrent queries.
  const obs::Gauge& bytes =
      obs::gauge("serve.cache_bytes", /*deterministic=*/false);
};

const CacheMetrics& cache_metrics() {
  static const CacheMetrics m;
  return m;
}

}  // namespace

AgedStateCache::AgedStateCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {
  stats_.budget_bytes = budget_bytes;
}

std::shared_ptr<const AgedCorner> AgedStateCache::get(std::uint64_t key) {
  std::lock_guard lk(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    cache_metrics().misses.add();
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  ++stats_.hits;
  cache_metrics().hits.add();
  return it->second->corner;
}

bool AgedStateCache::contains(std::uint64_t key) const {
  std::lock_guard lk(mutex_);
  return index_.contains(key);
}

void AgedStateCache::evict_to_fit_locked(std::size_t incoming_bytes) {
  while (!lru_.empty() && bytes_ + incoming_bytes > budget_bytes_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    cache_metrics().evictions.add();
  }
}

void AgedStateCache::put(std::uint64_t key,
                         std::shared_ptr<const AgedCorner> corner) {
  const std::size_t bytes = corner->byte_size();
  std::lock_guard lk(mutex_);
  if (bytes > budget_bytes_) {
    ++stats_.rejected_oversize;
    return;
  }
  const auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  evict_to_fit_locked(bytes);
  lru_.push_front(Entry{key, std::move(corner), bytes});
  index_[key] = lru_.begin();
  bytes_ += bytes;
  ++stats_.insertions;
  cache_metrics().insertions.add();
  cache_metrics().bytes.record(static_cast<std::int64_t>(bytes_));
}

CacheStats AgedStateCache::stats() const {
  std::lock_guard lk(mutex_);
  CacheStats s = stats_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.budget_bytes = budget_bytes_;
  return s;
}

void AgedStateCache::clear() {
  std::lock_guard lk(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

}  // namespace agingsim::serve
