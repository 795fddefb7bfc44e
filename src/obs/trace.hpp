#pragma once

// Scoped trace spans recorded into per-thread ring buffers and exported
// as Chrome trace-event JSON (docs/OBSERVABILITY.md) — open the file in
// chrome://tracing or https://ui.perfetto.dev. Like the metrics registry,
// a disabled span site costs one relaxed atomic load and nothing else; an
// enabled span costs two steady_clock reads and one store into a buffer
// owned by the recording thread (no locks, no allocation — span names
// must be string literals or otherwise outlive the process).
//
// Ring semantics: each thread's buffer holds the newest
// `AGINGSIM_TRACE_CAPACITY` (default 16384) spans; older spans are
// overwritten and counted as dropped in the export's otherData. Rings are
// retired when their thread exits and adopted by the next new thread,
// bounding memory by the peak thread count. The adopter records under a
// fresh tid after the spans the exited thread left, which keep theirs and
// are exported (or, once overwritten, counted as dropped) like any other.
//
// Export (`trace_json` / `write_trace_json`) walks the rings under the
// registry lock; call it from the coordinating thread after parallel
// regions have completed — spans recorded concurrently with an export may
// be torn. Naming convention: `subsystem.verb` (runner.unit,
// checkpoint.persist, pool.job), with the optional integer arg exported
// as args.v (unit index, trial index, job size, ...).

#include <atomic>
#include <cstdint>
#include <string>

namespace agingsim::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
std::uint64_t now_ns() noexcept;
void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t arg) noexcept;
}  // namespace detail

/// Sentinel for "span carries no argument".
inline constexpr std::uint64_t kNoArg = ~std::uint64_t{0};

/// One relaxed atomic load — the entire cost of a disabled site.
inline bool trace_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool on) noexcept;

/// RAII span: construction stamps the begin time, destruction records one
/// complete ("ph":"X") event into the calling thread's ring. `name` must
/// outlive the process (use string literals). A span whose construction
/// saw tracing disabled records nothing even if tracing is enabled later.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     std::uint64_t arg = kNoArg) noexcept
      : name_(name),
        arg_(arg),
        begin_ns_(trace_enabled() ? detail::now_ns() : kInactive) {}
  ~TraceSpan() {
    if (begin_ns_ != kInactive) detail::record_span(name_, begin_ns_, arg_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static constexpr std::uint64_t kInactive = ~std::uint64_t{0};
  const char* name_;
  std::uint64_t arg_;
  std::uint64_t begin_ns_;
};

/// The recorded spans as a Chrome trace-event JSON document
/// ({"traceEvents":[...]}, complete events sorted by begin time).
std::string trace_json();

/// Atomically (tmp + rename) writes trace_json() to `path`; returns false
/// (with a stderr diagnostic) on I/O failure — never throws, so it is
/// safe from atexit handlers.
bool write_trace_json(const std::string& path);

/// Spans recorded but no longer exportable: overwritten by newest-wins
/// wraparound, or cleared by a capacity change.
std::uint64_t trace_dropped_spans();

/// Clears every ring and the dropped count. Test-only: callers must
/// guarantee no thread is concurrently recording.
void reset_trace() noexcept;

/// Overrides the per-thread ring capacity (default 16384, or
/// AGINGSIM_TRACE_CAPACITY). Applies lazily: each ring adopts the new
/// capacity (discarding its contents) at its next recorded span.
/// Test-only knob.
void set_trace_ring_capacity(std::size_t spans);

}  // namespace agingsim::obs
