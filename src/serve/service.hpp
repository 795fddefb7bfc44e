#pragma once

// Request execution for agingd (docs/SERVING.md): the part of the daemon
// that knows what queries and campaigns *are*, with no sockets or threads
// in sight — the server (src/serve/server.hpp) owns transport, admission
// and scheduling and calls into here. Split this way the whole method
// surface is testable in-process.

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <variant>

#include "src/fault/campaign.hpp"
#include "src/multiplier/multiplier.hpp"
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

/// The multiplier a query or campaign names: am, cb or rb, at a width in
/// [Service::kMinWidth, Service::kMaxWidth].
struct CircuitParams {
  MultiplierArch arch = MultiplierArch::kColumnBypass;
  std::string arch_name;
  int width = 0;
};

/// A query's validated params and the key of the aged corner they name.
/// The key covers everything that determines the corner's bytes.
struct QueryParams : CircuitParams {
  double years = 0.0;
  std::size_t ops = 0;
  double period_frac = 0.0;
  int skip = 0;
  bool adaptive = true;
  std::uint64_t workload_seed = 0;
  std::uint64_t corner_key = 0;
};

/// A campaign's validated params. The resume cursor's digest is compared
/// only when the campaign runs: the digest it must equal needs the circuit
/// and the operand stream.
struct CampaignParams : CircuitParams {
  FaultCampaignConfig faults;
  std::string kind_name;
  std::size_t ops = 0;
  double period_frac = 0.0;
  bool checkpoint = true;  ///< false: no checkpoints, even with a root
  bool stream = false;
  std::int64_t stream_every = 1;
  std::uint64_t cursor_units = 0;  ///< the resume cursor's unit_index
  std::string cursor_digest;       ///< empty: no resume cursor
};

/// A work request's validated params.
struct WorkParams {
  std::int64_t spin_us = 0;
};

/// The validated params of one queueable request.
using RequestParams = std::variant<QueryParams, CampaignParams, WorkParams>;

/// Shared by every worker: the multipliers that requests name are built
/// once and then read `const` (circuit()).
class Service {
 public:
  /// The multiplier widths a query or campaign may name.
  static constexpr int kMinWidth = 2;
  static constexpr int kMaxWidth = 32;

  Service(ServiceConfig config, AgedStateCache* cache);

  /// Delivers one streaming progress frame payload (a complete JSON
  /// document; see protocol.hpp stream_frame) to the client. Returns
  /// false when the client is gone — emission stops but the work runs to
  /// completion, because every finished unit is checkpointed and the
  /// client re-attaches with its resume cursor.
  using StreamEmitter = std::function<bool(const std::string& payload)>;

  /// Validates the params of a queueable request (query, campaign or
  /// work) and digests a query's corner key. nullopt, with the bad_request
  /// message in `error`, for another method or a param out of range. The
  /// server parses each request once, on its event loop, before admission:
  /// a malformed request never takes a queue slot, a quota token or a
  /// worker.
  static std::optional<RequestParams> parse(const Request& request,
                                            std::string& error);

  /// Runs request `id` on the params parse() validated. `cancel` is the
  /// request's cancellation token: armed by the server's deadline watchdog
  /// and by drain. `emit` (optional) enables streaming for campaigns that
  /// ask for it. Never throws — failures come back as HandlerResult
  /// errors; the one bad_request is a campaign whose resume cursor carries
  /// another campaign's digest.
  HandlerResult handle(std::uint64_t id, const RequestParams& params,
                       const runtime::CancelToken& cancel,
                       const StreamEmitter& emit = {}) noexcept;

 private:
  /// One multiplier and its fresh critical path, immutable once built.
  struct Circuit {
    MultiplierNetlist mult;
    double fresh_critical_path_ps = 0.0;
  };
  struct CircuitSlot {
    std::once_flag built;
    std::optional<Circuit> circuit;
  };

  /// The circuit of `arch` (am, cb or rb) at `width` in [kMinWidth,
  /// kMaxWidth], built on first use and kept for the Service's lifetime.
  /// The table is bounded by that parameter space (93 slots), not by
  /// traffic, so it sits outside the cache budget.
  const Circuit& circuit(MultiplierArch arch, int width);

  HandlerResult handle_query(const QueryParams& q,
                             const runtime::CancelToken& cancel);
  HandlerResult handle_campaign(std::uint64_t id, const CampaignParams& c,
                                const runtime::CancelToken& cancel,
                                const StreamEmitter& emit);
  HandlerResult handle_work(const WorkParams& w,
                            const runtime::CancelToken& cancel);

  ServiceConfig config_;
  AgedStateCache* cache_;
  const TechLibrary& tech_;
  std::array<CircuitSlot, 3 * (kMaxWidth - kMinWidth + 1)> circuits_;
};

}  // namespace agingsim::serve
