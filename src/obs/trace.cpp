#include "src/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/env.hpp"
#include "src/report/json.hpp"

namespace agingsim::obs {
namespace detail {

std::atomic<bool> g_trace_enabled{false};

std::uint64_t now_ns() noexcept {
  // Monotonic nanoseconds since the first call — every ring shares this
  // origin, so cross-thread span ordering in the export is meaningful.
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

}  // namespace detail

namespace {

struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = kNoArg;
  int tid = 0;  // of the recording thread; a reused ring holds several
};

struct Ring {
  std::vector<TraceEvent> events;  // sized to capacity at (re)allocation
  std::uint64_t total = 0;         // spans ever pushed (wraps the index)
  int tid = 0;                     // of the thread recording now
};

struct TraceRegistry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Ring>> rings;
  std::vector<std::size_t> free_rings;
  /// Resolved lazily from the environment; atomic because record sites
  /// compare it against their ring's size without taking the lock.
  std::atomic<std::size_t> capacity{0};
  int next_tid = 1;  // tid 0 is reserved for "unknown"
  /// Spans a ring held when a capacity change cleared it.
  std::uint64_t discarded = 0;

  /// Sizes `ring` to `cap` spans, dropping (and counting) what it held.
  void resize(Ring& ring, std::size_t cap) {
    discarded += ring.total;
    ring.events.assign(cap, TraceEvent{});
    ring.total = 0;
  }

  std::size_t resolve_capacity() {
    std::size_t cap = capacity.load(std::memory_order_relaxed);
    if (cap == 0) {
      cap = static_cast<std::size_t>(
          env::long_or("AGINGSIM_TRACE_CAPACITY", 16384, 16, 1 << 24));
      capacity.store(cap, std::memory_order_relaxed);
    }
    return cap;
  }
};

TraceRegistry& registry() {
  static TraceRegistry* r = new TraceRegistry;
  return *r;
}

struct TlsRing {
  Ring* ring = nullptr;
  std::size_t index = 0;

  ~TlsRing() {
    if (ring == nullptr) return;
    TraceRegistry& reg = registry();
    std::lock_guard lk(reg.mutex);
    reg.free_rings.push_back(index);
  }
};

thread_local TlsRing tls_ring;

Ring& local_ring() {
  TraceRegistry& reg = registry();
  if (tls_ring.ring == nullptr) {
    std::lock_guard lk(reg.mutex);
    const std::size_t cap = reg.resolve_capacity();
    if (!reg.free_rings.empty()) {
      tls_ring.index = reg.free_rings.back();
      reg.free_rings.pop_back();
    } else {
      reg.rings.push_back(std::make_unique<Ring>());
      tls_ring.index = reg.rings.size() - 1;
    }
    Ring& ring = *reg.rings[tls_ring.index];
    // An adopted ring keeps the exited thread's spans (each stamped with
    // its own tid) and records after them under a fresh tid.
    if (ring.events.size() != cap) reg.resize(ring, cap);
    ring.tid = reg.next_tid++;
    tls_ring.ring = &ring;
  }
  Ring& ring = *tls_ring.ring;
  // Lazy capacity change (set_trace_ring_capacity): re-adopt in place.
  const std::size_t cap = reg.capacity.load(std::memory_order_relaxed);
  if (cap != 0 && ring.events.size() != cap) {
    std::lock_guard lk(reg.mutex);
    reg.resize(ring, reg.capacity.load(std::memory_order_relaxed));
  }
  return ring;
}

}  // namespace

namespace detail {

void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t arg) noexcept {
  const std::uint64_t end_ns = now_ns();
  Ring& ring = local_ring();
  TraceEvent& slot = ring.events[ring.total % ring.events.size()];
  slot.name = name;
  slot.begin_ns = begin_ns;
  slot.dur_ns = end_ns >= begin_ns ? end_ns - begin_ns : 0;
  slot.arg = arg;
  slot.tid = ring.tid;
  ++ring.total;
}

}  // namespace detail

void set_trace_enabled(bool on) noexcept {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t trace_dropped_spans() {
  TraceRegistry& reg = registry();
  std::lock_guard lk(reg.mutex);
  std::uint64_t dropped = reg.discarded;
  for (const auto& ring : reg.rings) {
    if (ring->total > ring->events.size()) {
      dropped += ring->total - ring->events.size();
    }
  }
  return dropped;
}

std::string trace_json() {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  {
    TraceRegistry& reg = registry();
    std::lock_guard lk(reg.mutex);
    dropped = reg.discarded;
    for (const auto& ring : reg.rings) {
      const std::size_t cap = ring->events.size();
      if (cap == 0) continue;
      const std::uint64_t kept = std::min<std::uint64_t>(ring->total, cap);
      dropped += ring->total - kept;
      // Oldest-first within the ring: indices [total-kept, total).
      for (std::uint64_t i = ring->total - kept; i < ring->total; ++i) {
        events.push_back(ring->events[i % cap]);
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.begin_ns != b.begin_ns) {
                       return a.begin_ns < b.begin_ns;
                     }
                     return a.tid < b.tid;
                   });

  JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("otherData").begin_object();
  json.key("tool").value("agingsim");
  json.key("dropped_events").value(dropped);
  json.end_object();
  json.key("traceEvents").begin_array();
  for (const TraceEvent& e : events) {
    json.begin_object();
    json.key("name").value(e.name);
    json.key("cat").value("agingsim");
    json.key("ph").value("X");
    json.key("pid").value(1);
    json.key("tid").value(e.tid);
    // Chrome trace timestamps are microseconds; fractional is allowed.
    json.key("ts").value(static_cast<double>(e.begin_ns) / 1000.0);
    json.key("dur").value(static_cast<double>(e.dur_ns) / 1000.0);
    if (e.arg != kNoArg) {
      json.key("args").begin_object();
      json.key("v").value(e.arg);
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

bool write_trace_json(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "obs: cannot write %s\n", tmp.c_str());
      return false;
    }
    out << trace_json() << "\n";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "obs: cannot rename %s\n", tmp.c_str());
    return false;
  }
  return true;
}

void reset_trace() noexcept {
  TraceRegistry& reg = registry();
  std::lock_guard lk(reg.mutex);
  for (const auto& ring : reg.rings) {
    ring->total = 0;
  }
  reg.discarded = 0;
}

void set_trace_ring_capacity(std::size_t spans) {
  TraceRegistry& reg = registry();
  std::lock_guard lk(reg.mutex);
  reg.capacity = std::max<std::size_t>(1, spans);
}

}  // namespace agingsim::obs
