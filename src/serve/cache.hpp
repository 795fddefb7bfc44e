#pragma once

// LRU cache of aged-netlist state for the serving daemon (docs/SERVING.md).
//
// Aging a netlist is the expensive half of a query: extracting a stress
// profile, evaluating per-gate delay scales at the requested year, and
// replaying the canonical workload into a gate-level trace costs orders of
// magnitude more than scoring that trace through the architectural policy.
// The daemon therefore caches what a replay needs of each aged corner —
// mean dVth, critical path, op trace — keyed by its configuration digest
// (runtime::Digest of arch/width/years/workload — the same fingerprint
// discipline as the checkpoint store), so repeat queries against a warm
// corner do only the cheap replay.
//
// Eviction is by byte budget, not entry count: one 32-bit corner at 100k
// ops holds ~8 MB of trace, so counting entries would make the budget
// meaningless. Least-recently-used corners evict first. A single entry
// larger than the whole budget is simply not cached (get-compute-drop),
// never wedged in by evicting everything else.
//
// Entries are immutable and shared: get() hands out a pointer to the
// cached corner, not a copy, so a hot query copies no trace under the
// cache's lock. An evicted corner leaves the budget at once but lives
// until its last reader drops it.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/core/vl_multiplier.hpp"

namespace agingsim::serve {

/// Cached state of one aged corner. A replay sees the aged gates only
/// through `critical_path_ps` and `trace`, so the per-gate delay scales
/// stay with the refill that computes them.
struct AgedCorner {
  double mean_dvth_v = 0.0;
  /// STA critical path of the aged gates; the replay's period is a
  /// fraction of it.
  double critical_path_ps = 0.0;
  std::vector<OpTrace> trace;  ///< canonical workload through the aged gates

  std::size_t byte_size() const noexcept {
    return sizeof(AgedCorner) + trace.size() * sizeof(OpTrace);
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_oversize = 0;  ///< entries larger than the budget
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t budget_bytes = 0;
};

/// Thread-safe byte-budgeted LRU. get() shares the entry out, so an
/// eviction on another thread never invalidates a corner mid-query.
class AgedStateCache {
 public:
  explicit AgedStateCache(std::size_t budget_bytes);

  /// The corner (null on a miss); refreshes its recency and counts a
  /// hit/miss.
  std::shared_ptr<const AgedCorner> get(std::uint64_t key);

  /// True without touching recency or hit/miss counters — the admission
  /// path uses this to classify a query as a cache refill.
  bool contains(std::uint64_t key) const;

  /// Inserts (or replaces) and evicts LRU entries until the budget holds.
  /// Oversize entries are counted and dropped.
  void put(std::uint64_t key, std::shared_ptr<const AgedCorner> corner);

  CacheStats stats() const;
  void clear();

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::shared_ptr<const AgedCorner> corner;
    std::size_t bytes = 0;
  };

  void evict_to_fit_locked(std::size_t incoming_bytes);

  mutable std::mutex mutex_;
  std::size_t budget_bytes_;
  std::size_t bytes_ = 0;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace agingsim::serve
