#pragma once

// Request execution for agingd (docs/SERVING.md): the part of the daemon
// that knows what queries and campaigns *are*, with no sockets or threads
// in sight — the server (src/serve/server.hpp) owns transport, admission
// and scheduling and calls into here. Split this way the whole method
// surface is testable in-process.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "src/netlist/techlib.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/protocol.hpp"

namespace agingsim::serve {

struct ServiceConfig {
  /// Campaign checkpoint root; one subdirectory per config digest. Empty
  /// disables checkpointing (campaigns lose crash-safety, nothing else).
  std::string checkpoint_root;
  /// RobustRunner settings for campaign requests. `stop` and `checkpoints`
  /// are filled per request; `pool` stays null (the request already owns a
  /// worker thread, campaigns parallelize trials on a one-shot pool).
  runtime::RunnerConfig runner{};
};

/// Outcome of one handled request, transport-agnostic.
struct HandlerResult {
  bool ok = false;
  /// When ok: a complete JSON value for the response envelope's "result".
  std::string result_json;
  /// When !ok: the error to report. kCancelled is resolved by the server
  /// into timeout-vs-drain based on which token fired.
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

class Service {
 public:
  Service(ServiceConfig config, AgedStateCache* cache);

  /// Delivers one streaming progress frame payload (a complete JSON
  /// document; see protocol.hpp stream_frame) to the client. Returns
  /// false when the client is gone — emission stops but the work runs to
  /// completion, because every finished unit is checkpointed and the
  /// client re-attaches with its resume cursor.
  using StreamEmitter = std::function<bool(const std::string& payload)>;

  /// Executes one queued (non-control) request. `cancel` is the request's
  /// cancellation token: armed by the server's deadline watchdog and by
  /// drain. `emit` (optional) enables streaming for campaigns that ask
  /// for it. Never throws — failures come back as HandlerResult errors.
  HandlerResult handle(const Request& request,
                       const runtime::CancelToken& cancel,
                       const StreamEmitter& emit = {}) noexcept;

  /// Cache key of a query request, or nullopt when the params are invalid
  /// (validation then happens in handle()). The admission path uses this
  /// plus AgedStateCache::contains to classify a query as a cache refill.
  std::optional<std::uint64_t> query_cache_key(const JsonValue& params) const;

  const ServiceConfig& config() const noexcept { return config_; }

 private:
  HandlerResult handle_query(const JsonValue& params,
                             const runtime::CancelToken& cancel);
  HandlerResult handle_campaign(const Request& request,
                                const runtime::CancelToken& cancel,
                                const StreamEmitter& emit);
  HandlerResult handle_work(const JsonValue& params,
                            const runtime::CancelToken& cancel);

  ServiceConfig config_;
  AgedStateCache* cache_;
  const TechLibrary& tech_;
};

}  // namespace agingsim::serve
