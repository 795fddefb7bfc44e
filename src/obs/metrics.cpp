#include "src/obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "src/obs/artifacts.hpp"
#include "src/report/json.hpp"

namespace agingsim::obs {
namespace detail {

std::atomic<bool> g_metrics_enabled{false};

}  // namespace detail

namespace {

/// Slot budget per shard. Registration is programmer-controlled (a few
/// dozen metrics; histograms take bounds+2 slots), so a fixed budget keeps
/// shards allocation-free and index-stable for the process lifetime.
constexpr std::uint32_t kMaxSlots = 1024;

/// One thread's slice of every metric. Slots are written with relaxed
/// atomics by the owning thread only and read by snapshotters, so there is
/// never a data race and never cross-thread write contention. When a
/// thread exits, its shard is retired but kept — the counts it accumulated
/// stay in every later snapshot — and the next new thread adopts it
/// (continuing its totals), which bounds memory by the peak thread count.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxSlots> slots{};
};

struct Descriptor {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  bool deterministic = true;
  std::uint32_t base_slot = 0;
  std::vector<double> bounds;  // histogram only
};

}  // namespace

/// Lets this translation unit construct handles despite their private
/// members (the public API hands out const references only).
struct RegistryAccess {
  static Counter make_counter(std::uint32_t slot) {
    Counter c;
    c.slot_ = slot;
    return c;
  }
  static Gauge make_gauge(std::uint32_t slot) {
    Gauge g;
    g.slot_ = slot;
    return g;
  }
  static Histogram make_histogram(std::uint32_t slot, const double* bounds,
                                  std::uint32_t num_bounds) {
    Histogram h;
    h.slot_ = slot;
    h.bounds_ = bounds;
    h.num_bounds_ = num_bounds;
    return h;
  }
};

namespace {

struct Registry {
  std::mutex mutex;
  std::deque<Descriptor> descriptors;  // deque: stable bounds addresses
  std::deque<Counter> counters;        // handle storage (stable refs)
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  // name -> (descriptor index, handle pointer) found by linear scan; the
  // metric count is tiny and registration is one-time per site.
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::size_t> free_shards;
  std::uint32_t next_slot = 0;

  std::uint32_t take_slots(std::uint32_t n) {
    if (next_slot + n > kMaxSlots) {
      throw std::logic_error("obs: metric slot budget exhausted");
    }
    const std::uint32_t base = next_slot;
    next_slot += n;
    return base;
  }

  static constexpr std::size_t kNotFound = ~std::size_t{0};

  std::size_t find(std::string_view name) const {
    for (std::size_t i = 0; i < descriptors.size(); ++i) {
      if (descriptors[i].name == name) return i;
    }
    return kNotFound;
  }
};

/// Leaked singleton: usable from static initializers and atexit handlers
/// in any order.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// Thread-local shard handle; releases the shard for adoption on thread
/// exit (without clearing it — retired counts must survive into the final
/// snapshot).
struct TlsShard {
  Shard* shard = nullptr;
  std::size_t index = 0;

  ~TlsShard() {
    if (shard == nullptr) return;
    Registry& reg = registry();
    std::lock_guard lk(reg.mutex);
    reg.free_shards.push_back(index);
  }
};

thread_local TlsShard tls_shard;

Shard& local_shard() {
  if (tls_shard.shard == nullptr) {
    Registry& reg = registry();
    std::lock_guard lk(reg.mutex);
    if (!reg.free_shards.empty()) {
      tls_shard.index = reg.free_shards.back();
      reg.free_shards.pop_back();
    } else {
      reg.shards.push_back(std::make_unique<Shard>());
      tls_shard.index = reg.shards.size() - 1;
    }
    tls_shard.shard = reg.shards[tls_shard.index].get();
  }
  return *tls_shard.shard;
}

void check_kind(const Descriptor& d, MetricKind kind) {
  if (d.kind != kind) {
    throw std::logic_error("obs: metric '" + d.name +
                           "' re-registered with a different kind");
  }
}

}  // namespace

namespace detail {

void slot_add(std::uint32_t slot, std::uint64_t delta) noexcept {
  local_shard().slots[slot].fetch_add(delta, std::memory_order_relaxed);
}

void slot_max(std::uint32_t slot, std::int64_t value) noexcept {
  std::atomic<std::uint64_t>& cell = local_shard().slots[slot];
  // Only the owning thread writes this slot, so load+store (no CAS) is
  // enough to keep the per-thread maximum.
  const auto current =
      static_cast<std::int64_t>(cell.load(std::memory_order_relaxed));
  if (value > current) {
    cell.store(static_cast<std::uint64_t>(value),
               std::memory_order_relaxed);
  }
}

void hist_observe(std::uint32_t base_slot, const double* bounds,
                  std::uint32_t num_bounds, double value) noexcept {
  std::uint32_t bucket = 0;
  while (bucket < num_bounds && value > bounds[bucket]) ++bucket;
  slot_add(base_slot + bucket, 1);
  const double clamped = std::max(0.0, value);
  slot_add(base_slot + num_bounds + 1,
           static_cast<std::uint64_t>(std::llround(clamped)));
}

}  // namespace detail

void set_metrics_enabled(bool on) noexcept {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

const Counter& counter(std::string_view name, bool deterministic) {
  Registry& reg = registry();
  std::lock_guard lk(reg.mutex);
  if (const std::size_t i = reg.find(name); i != Registry::kNotFound) {
    check_kind(reg.descriptors[i], MetricKind::kCounter);
    return reg.counters[i];
  }
  const std::uint32_t slot = reg.take_slots(1);
  reg.descriptors.push_back({std::string(name), MetricKind::kCounter,
                             deterministic, slot, {}});
  reg.counters.push_back(RegistryAccess::make_counter(slot));
  reg.gauges.emplace_back();      // keep handle deques index-aligned
  reg.histograms.emplace_back();  // with the descriptor deque
  return reg.counters.back();
}

const Gauge& gauge(std::string_view name, bool deterministic) {
  Registry& reg = registry();
  std::lock_guard lk(reg.mutex);
  if (const std::size_t i = reg.find(name); i != Registry::kNotFound) {
    check_kind(reg.descriptors[i], MetricKind::kGauge);
    return reg.gauges[i];
  }
  const std::uint32_t slot = reg.take_slots(1);
  reg.descriptors.push_back(
      {std::string(name), MetricKind::kGauge, deterministic, slot, {}});
  reg.counters.emplace_back();
  reg.gauges.push_back(RegistryAccess::make_gauge(slot));
  reg.histograms.emplace_back();
  return reg.gauges.back();
}

const Histogram& histogram(std::string_view name,
                           std::span<const double> bucket_bounds,
                           bool deterministic) {
  if (bucket_bounds.empty() ||
      !std::is_sorted(bucket_bounds.begin(), bucket_bounds.end())) {
    throw std::logic_error("obs: histogram '" + std::string(name) +
                           "' needs ascending bucket bounds");
  }
  Registry& reg = registry();
  std::lock_guard lk(reg.mutex);
  if (const std::size_t i = reg.find(name); i != Registry::kNotFound) {
    check_kind(reg.descriptors[i], MetricKind::kHistogram);
    return reg.histograms[i];
  }
  const auto num_bounds = static_cast<std::uint32_t>(bucket_bounds.size());
  // num_bounds+1 bucket counts (last = overflow) plus the sum slot.
  const std::uint32_t slot = reg.take_slots(num_bounds + 2);
  reg.descriptors.push_back(
      {std::string(name), MetricKind::kHistogram, deterministic, slot,
       std::vector<double>(bucket_bounds.begin(), bucket_bounds.end())});
  reg.counters.emplace_back();
  reg.gauges.emplace_back();
  reg.histograms.push_back(RegistryAccess::make_histogram(
      slot, reg.descriptors.back().bounds.data(), num_bounds));
  return reg.histograms.back();
}

std::vector<MetricValue> metrics_snapshot(bool deterministic_only) {
  Registry& reg = registry();
  std::lock_guard lk(reg.mutex);
  std::vector<MetricValue> out;
  out.reserve(reg.descriptors.size());
  for (const Descriptor& d : reg.descriptors) {
    if (deterministic_only && !d.deterministic) continue;
    MetricValue v;
    v.name = d.name;
    v.kind = d.kind;
    v.deterministic = d.deterministic;
    // Merge shards in index order — sums and maxima are order-independent,
    // but a fixed order keeps the walk itself deterministic.
    const auto merged = [&](std::uint32_t slot) {
      std::uint64_t total = 0;
      for (const auto& shard : reg.shards) {
        total += shard->slots[slot].load(std::memory_order_relaxed);
      }
      return total;
    };
    switch (d.kind) {
      case MetricKind::kCounter:
        v.value = merged(d.base_slot);
        break;
      case MetricKind::kGauge: {
        std::int64_t best = 0;
        for (const auto& shard : reg.shards) {
          best = std::max(best,
                          static_cast<std::int64_t>(shard->slots[d.base_slot]
                              .load(std::memory_order_relaxed)));
        }
        v.value = static_cast<std::uint64_t>(best);
        break;
      }
      case MetricKind::kHistogram: {
        v.bounds = d.bounds;
        const auto buckets = static_cast<std::uint32_t>(d.bounds.size()) + 1;
        v.buckets.resize(buckets);
        for (std::uint32_t b = 0; b < buckets; ++b) {
          v.buckets[b] = merged(d.base_slot + b);
          v.value += v.buckets[b];
        }
        v.sum = merged(d.base_slot + buckets);
        break;
      }
    }
    out.push_back(std::move(v));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::string metrics_json(bool deterministic_only) {
  const std::vector<MetricValue> snap = metrics_snapshot(deterministic_only);
  JsonWriter json;
  json.begin_object();
  json.key("tool").value("agingsim");
  json.key("schema_version").value(std::int64_t{1});
  json.key("metrics").begin_array();
  for (const MetricValue& m : snap) {
    json.begin_object();
    json.key("name").value(m.name);
    switch (m.kind) {
      case MetricKind::kCounter:
        json.key("kind").value("counter");
        json.key("value").value(m.value);
        break;
      case MetricKind::kGauge:
        json.key("kind").value("gauge");
        json.key("value").value(static_cast<std::int64_t>(m.value));
        break;
      case MetricKind::kHistogram:
        json.key("kind").value("histogram");
        json.key("count").value(m.value);
        json.key("sum").value(m.sum);
        json.key("bounds").begin_array();
        for (const double b : m.bounds) json.value(b);
        json.end_array();
        json.key("buckets").begin_array();
        for (const std::uint64_t b : m.buckets) json.value(b);
        json.end_array();
        break;
    }
    json.key("deterministic").value(m.deterministic);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

bool write_metrics_json(const std::string& path, bool deterministic_only) {
  return write_file_atomic(path, metrics_json(deterministic_only), "obs");
}

void reset_metrics() noexcept {
  Registry& reg = registry();
  std::lock_guard lk(reg.mutex);
  for (const auto& shard : reg.shards) {
    for (auto& slot : shard->slots) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace agingsim::obs
