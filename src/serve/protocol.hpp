#pragma once

// Wire protocol of the agingd serving daemon (docs/SERVING.md).
//
// Transport: a Unix-domain stream socket carrying length-prefixed JSON
// frames — a 4-byte little-endian payload length followed by that many
// bytes of UTF-8 JSON. The prefix caps at kMaxFrameBytes; an oversized
// prefix poisons the connection (there is no way to resynchronize a
// stream after a corrupt length), whereas malformed JSON inside a valid
// frame only fails that one request.
//
// Requests:  {"id": 7, "method": "query", "deadline_ms": 2000,
//             "client_id": "ci-paced", "params": {...}}
// Responses: {"id": 7, "ok": true,  "result": {...}}
//            {"id": 7, "ok": false, "error": {"code": "overloaded",
//             "message": "...", "retry_after_ms": 40}}
// Streaming: a campaign with "stream": true in its params additionally
// emits zero or more progress frames before the final response:
//            {"id": 7, "stream": 3, "units_done": 3, "units_total": 9,
//             "partial_stats": {...}}
// Progress frames always carry a "stream" key; the final frame never
// does, so clients read frames until the first one without it.
//
// Methods fall into three priority classes that drive admission control
// (src/serve/admission.hpp): control-plane requests (health, status,
// metrics, shutdown) bypass the admission queue entirely and must answer
// even under full overload; normal requests (query, work) and batch
// requests (campaign) go through the bounded queue and can be rejected.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/serve/json.hpp"

namespace agingsim::serve {

/// Hard cap on one frame's payload. Large enough for any campaign result,
/// small enough that a corrupt length prefix cannot OOM the daemon.
inline constexpr std::uint32_t kMaxFrameBytes = 4u << 20;

/// Admission class of a request (see docs/SERVING.md).
enum class Priority {
  kControl,  ///< health/status/metrics/shutdown: never queued, never shed
  kNormal,   ///< query/work: queued, shed only when the queue is full
  kBatch,    ///< campaign: queued, shed first under degradation tier 2
};

/// Machine-readable error codes of failed responses.
enum class ErrorCode {
  kBadRequest,   ///< malformed JSON / unknown method / invalid params
  kOverloaded,   ///< admission queue full — retry after the hint
  kShedRefill,   ///< degradation tier >= 1: aged-state cache refill shed
  kShedBatch,    ///< degradation tier >= 2: batch work rejected
  kDraining,     ///< daemon is draining; no new work accepted
  kTimeout,      ///< per-request deadline expired (queued or running)
  kCancelled,    ///< cancelled by shutdown while in flight
  kInternal,     ///< handler threw; message carries the what()
  kQuotaExceeded,  ///< per-client token bucket empty — retry after hint
};

std::string_view error_code_name(ErrorCode code) noexcept;

/// One decoded request. `params` stays a JsonValue — each handler knows
/// its own schema; protocol-level validation covers only the envelope.
struct Request {
  std::uint64_t id = 0;
  std::string method;
  Priority priority = Priority::kNormal;
  /// Total budget from admission to response; 0 = server default.
  std::int64_t deadline_ms = 0;
  /// Fairness identity for quota/DRR accounting. Optional: empty means the
  /// server falls back to the connection's synthetic identity. Validated
  /// to 1..64 chars of [A-Za-z0-9._-] so identities are safe to echo into
  /// status JSON and logs.
  std::string client_id;
  JsonValue params;  ///< object (possibly empty)
};

/// True when `id` is a well-formed client identity (see Request::client_id).
bool valid_client_id(std::string_view id) noexcept;

/// Envelope validation: parses the frame payload, resolves the method's
/// priority class, extracts id/deadline. On failure returns nullopt and
/// fills `error` with a bad_request response body ready to send.
std::optional<Request> parse_request(std::string_view payload,
                                     std::string* error_response);

/// Priority class of a known method (kNormal for unknown — but unknown
/// methods never pass parse_request).
Priority method_priority(std::string_view method) noexcept;

/// Response builders. `result_json` must be a complete JSON value; it is
/// spliced verbatim into the envelope.
std::string ok_response(std::uint64_t id, std::string_view result_json);
std::string error_response(std::uint64_t id, ErrorCode code,
                           std::string_view message,
                           std::int64_t retry_after_ms = -1);
/// Campaign progress frame. `seq` is the campaign's completion frontier
/// (units done), NOT a per-connection counter — that makes the frame
/// stream a pure function of campaign progress, so bytes from a dropped
/// run concatenated with a resumed tail equal an uninterrupted run's.
std::string stream_frame(std::uint64_t id, std::uint64_t seq,
                         std::uint64_t units_done, std::uint64_t units_total,
                         std::string_view partial_stats_json);

/// Length-prefix helpers on raw byte strings (pure, testable without a
/// socket). encode_frame refuses payloads over kMaxFrameBytes.
std::string encode_frame(std::string_view payload);

/// Incremental frame decoder for a byte stream: feed bytes, take frames.
/// Returns false from feed() when the stream is poisoned (length prefix
/// over kMaxFrameBytes); no further frames will be produced.
class FrameDecoder {
 public:
  /// Appends stream bytes; false = poisoned (close the connection).
  bool feed(std::string_view bytes);
  /// Pops the next complete frame payload, if any.
  std::optional<std::string> next();
  bool poisoned() const noexcept { return poisoned_; }
  /// True while a frame is partially buffered (length prefix or payload
  /// incomplete). Drives the server's read deadline: a connection may sit
  /// idle between frames forever, but once a frame starts it must finish
  /// within the deadline (the slow-loris defence).
  bool mid_frame() const noexcept { return !buffer_.empty(); }
  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
  bool poisoned_ = false;
};

/// Blocking socket transport for clients (the daemon's loop is
/// non-blocking). Both retry EINTR and handle short reads/writes.
/// read_frame returns nullopt on clean EOF at a frame boundary; sets
/// `*error` (when given) for hard failures.
bool write_frame_fd(int fd, std::string_view payload,
                    std::string* error = nullptr);
std::optional<std::string> read_frame_fd(int fd, std::string* error = nullptr);

}  // namespace agingsim::serve
