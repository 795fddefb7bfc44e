#include "src/serve/service.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "src/aging/bti.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/fault/campaign.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/report/json.hpp"
#include "src/report/stats_json.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/serial.hpp"
#include "src/workload/patterns.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::serve {
namespace {

// The same calibration anchor as bench::tech(): CB16 critical path 1.88 ns.
const TechLibrary& service_tech() {
  static const TechLibrary t = calibrated_tech_library(1880.0);
  return t;
}

// Stress-extraction parameters of every served aging corner. Fixed rather
// than client-controlled: they are part of the cache key, and letting each
// client pick its own would fragment the cache for no modeling benefit.
constexpr std::uint64_t kStressSeed = 0x26F1;
constexpr std::size_t kStressPatterns = 1000;
constexpr std::uint64_t kWorkloadSeed = 0xA61A5;

// Hard parameter ceilings. A serving daemon cannot trust request sizes: an
// ops count of 10^9 or a 10^6-trial campaign would occupy a worker for
// hours, which is indistinguishable from an outage for everyone queued
// behind it. Out-of-range params are rejected as bad_request.
constexpr std::size_t kMaxOps = 200000;
constexpr int kMaxTrials = 4096;
constexpr std::int64_t kMaxSpinUs = 10'000'000;
constexpr double kMaxYears = 50.0;

struct ServiceMetrics {
  const obs::Counter& queries = obs::counter("serve.queries");
  const obs::Counter& campaigns = obs::counter("serve.campaigns");
  const obs::Counter& work = obs::counter("serve.work_requests");
  const obs::Counter& corner_refills = obs::counter("serve.corner_refills");
};

const ServiceMetrics& service_metrics() {
  static const ServiceMetrics m;
  return m;
}

HandlerResult ok_result(const std::string& result_json) {
  HandlerResult out;
  out.ok = true;
  out.result_json = result_json;
  return out;
}

HandlerResult bad_request(std::string message) {
  return HandlerResult{.ok = false,
                       .result_json = {},
                       .code = ErrorCode::kBadRequest,
                       .message = std::move(message)};
}

HandlerResult cancelled_result(const runtime::CancelToken& cancel,
                               std::string where) {
  (void)cancel;
  return HandlerResult{.ok = false,
                       .result_json = {},
                       .code = ErrorCode::kCancelled,
                       .message = "cancelled during " + std::move(where)};
}

/// Validated query parameters; the digest must cover everything that
/// determines the cached corner's bytes.
struct QueryParams {
  MultiplierArch arch = MultiplierArch::kColumnBypass;
  std::string arch_name = "cb";
  int width = 16;
  double years = 0.0;
  std::size_t ops = 2000;
  double period_frac = 0.58;
  int skip = 7;
  bool adaptive = true;
  std::uint64_t workload_seed = kWorkloadSeed;
};

std::optional<QueryParams> parse_query_params(const JsonValue& params,
                                              std::string* error) {
  const auto reject = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  QueryParams q;
  q.arch_name = params.str_or("arch", "cb");
  // The service models AM, CB and RB; no Wallace tree.
  const auto arch = parse_arch(q.arch_name);
  if (!arch || *arch == MultiplierArch::kWallaceTree) {
    return reject("arch must be am|cb|rb");
  }
  q.arch = *arch;
  const std::int64_t width = params.i64_or("width", 16);
  if (width < 2 || width > 32) return reject("width must be in [2, 32]");
  q.width = static_cast<int>(width);
  q.years = params.num_or("years", 0.0);
  if (!(q.years >= 0.0) || q.years > kMaxYears) {
    return reject("years must be in [0, " + std::to_string(kMaxYears) + "]");
  }
  const std::int64_t ops = params.i64_or("ops", 2000);
  if (ops < 1 || static_cast<std::size_t>(ops) > kMaxOps) {
    return reject("ops must be in [1, " + std::to_string(kMaxOps) + "]");
  }
  q.ops = static_cast<std::size_t>(ops);
  q.period_frac = params.num_or("period_frac", 0.58);
  if (!(q.period_frac > 0.0) || q.period_frac > 4.0) {
    return reject("period_frac must be in (0, 4]");
  }
  const std::int64_t skip = params.i64_or("skip", 7);
  if (skip < 1 || skip >= width) return reject("skip must be in [1, width)");
  q.skip = static_cast<int>(skip);
  q.adaptive = params.bool_or("adaptive", true);
  q.workload_seed = params.u64_or("seed", kWorkloadSeed);
  return q;
}

std::uint64_t query_corner_digest(const QueryParams& q) {
  runtime::Digest digest;
  digest.mix(std::string_view("serve-query-corner/v1"))
      .mix(std::string_view(q.arch_name))
      .mix(q.width)
      .mix(q.years)
      .mix(static_cast<std::uint64_t>(q.ops))
      .mix(q.workload_seed)
      .mix(kStressSeed)
      .mix(static_cast<std::uint64_t>(kStressPatterns));
  return digest.value();
}

/// Two concurrent campaigns with identical parameters map to the same
/// digest-keyed checkpoint directory; the second one's load() could compact
/// away the segment the first is still appending to. Serializing per
/// digest also means the second request rides the first one's checkpoints
/// instead of recomputing the same units. The registry keeps
/// one mutex per distinct digest ever served — a few dozen bytes each,
/// bounded by the number of distinct campaign configurations.
std::mutex& campaign_digest_mutex(std::uint64_t digest) {
  static std::mutex registry_mutex;
  static std::map<std::uint64_t, std::unique_ptr<std::mutex>>* registry =
      new std::map<std::uint64_t, std::unique_ptr<std::mutex>>();
  std::lock_guard lk(registry_mutex);
  auto& slot = (*registry)[digest];
  if (slot == nullptr) slot = std::make_unique<std::mutex>();
  return *slot;
}

char hex_digit(std::uint64_t v) {
  return "0123456789abcdef"[v & 0xF];
}

std::string digest_hex(std::uint64_t digest) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex_digit(digest);
    digest >>= 4;
  }
  return out;
}

}  // namespace

Service::Service(ServiceConfig config, AgedStateCache* cache)
    : config_(std::move(config)), cache_(cache), tech_(service_tech()) {}

std::optional<std::uint64_t> Service::query_cache_key(
    const JsonValue& params) const {
  const auto q = parse_query_params(params, nullptr);
  if (!q.has_value()) return std::nullopt;
  return query_corner_digest(*q);
}

HandlerResult Service::handle(const Request& request,
                              const runtime::CancelToken& cancel,
                              const StreamEmitter& emit) noexcept {
  try {
    obs::TraceSpan span("serve.handle", request.id);
    if (request.method == "query") return handle_query(request.params, cancel);
    if (request.method == "campaign") {
      return handle_campaign(request, cancel, emit);
    }
    if (request.method == "work") return handle_work(request.params, cancel);
    return bad_request("method '" + request.method +
                       "' is not a queueable method");
  } catch (const std::exception& e) {
    return HandlerResult{.ok = false,
                         .result_json = {},
                         .code = ErrorCode::kInternal,
                         .message = e.what()};
  } catch (...) {
    return HandlerResult{.ok = false,
                         .result_json = {},
                         .code = ErrorCode::kInternal,
                         .message = "unknown exception"};
  }
}

HandlerResult Service::handle_query(const JsonValue& params,
                                    const runtime::CancelToken& cancel) {
  service_metrics().queries.add();
  std::string error;
  const auto q = parse_query_params(params, &error);
  if (!q.has_value()) return bad_request(error);

  const std::uint64_t key = query_corner_digest(*q);
  const MultiplierNetlist mult = build_multiplier(q->arch, q->width);

  bool cache_hit = true;
  std::optional<AgedCorner> corner =
      cache_ != nullptr ? cache_->get(key) : std::nullopt;
  if (!corner.has_value()) {
    cache_hit = false;
    service_metrics().corner_refills.add();
    obs::TraceSpan refill_span("serve.corner_refill", key);
    if (cancel.cancelled()) return cancelled_result(cancel, "corner refill");
    AgedCorner fresh;
    if (q->years > 0.0) {
      const BtiModel model = BtiModel::calibrated(tech_);
      const AgingScenario scenario(mult.netlist, tech_, model, kStressSeed,
                                   kStressPatterns);
      fresh.delay_scales = scenario.delay_scales_at(q->years);
      fresh.mean_dvth_v = scenario.mean_dvth_at(q->years);
    }
    if (cancel.cancelled()) return cancelled_result(cancel, "corner refill");
    Rng rng(q->workload_seed);
    const auto patterns = uniform_patterns(rng, q->width, q->ops);
    fresh.trace = compute_op_trace(
        mult, tech_, patterns,
        TraceOptions{.gate_delay_scale = fresh.delay_scales});
    if (cache_ != nullptr) cache_->put(key, fresh);
    corner = std::move(fresh);
  }
  if (cancel.cancelled()) return cancelled_result(cancel, "query replay");

  VlSystemConfig cfg;
  cfg.period_ps =
      q->period_frac * critical_path_ps(mult, tech_, corner->delay_scales);
  cfg.ahl.width = q->width;
  cfg.ahl.skip = q->skip;
  cfg.ahl.adaptive = q->adaptive;
  VariableLatencySystem sys(mult, tech_, cfg);
  const RunStats stats = sys.run(corner->trace, corner->mean_dvth_v);

  JsonWriter json;
  json.begin_object();
  json.key("arch").value(q->arch_name);
  json.key("width").value(q->width);
  json.key("years").value(q->years);
  json.key("corner_digest").value(digest_hex(key));
  json.key("cache_hit").value(cache_hit);
  json.key("stats").begin_object();
  write_run_stats(json, stats);
  json.end_object();
  json.end_object();
  return ok_result(json.str());
}

HandlerResult Service::handle_campaign(const Request& request,
                                       const runtime::CancelToken& cancel,
                                       const StreamEmitter& emit) {
  const JsonValue& params = request.params;
  service_metrics().campaigns.add();
  const auto reject = [](const std::string& m) { return bad_request(m); };

  const std::string arch_name = params.str_or("arch", "cb");
  const auto arch = parse_arch(arch_name);
  if (!arch || *arch == MultiplierArch::kWallaceTree) {
    return reject("arch must be am|cb|rb");
  }
  const std::int64_t width = params.i64_or("width", 16);
  if (width < 2 || width > 32) return reject("width must be in [2, 32]");
  const std::int64_t trials = params.i64_or("trials", 32);
  if (trials < 1 || trials > kMaxTrials) {
    return reject("trials must be in [1, " + std::to_string(kMaxTrials) + "]");
  }
  const std::int64_t ops = params.i64_or("ops", 1000);
  if (ops < 1 || static_cast<std::size_t>(ops) > kMaxOps) {
    return reject("ops must be in [1, " + std::to_string(kMaxOps) + "]");
  }
  const std::int64_t sites = params.i64_or("sites", 2);
  if (sites < 1 || sites > 64) return reject("sites must be in [1, 64]");
  const std::string kind_name = params.str_or("kind", "delay");
  const auto kind = parse_fault_kind(kind_name);
  if (!kind.has_value()) {
    return reject("kind must be stuck0|stuck1|transient|delay");
  }
  const double delay_factor = params.num_or("delay_factor", 8.0);
  if (!(delay_factor > 0.0)) return reject("delay_factor must be > 0");
  const double period_frac = params.num_or("period_frac", 0.58);
  if (!(period_frac > 0.0) || period_frac > 4.0) {
    return reject("period_frac must be in (0, 4]");
  }
  const std::uint64_t seed = params.u64_or("seed", 0xFA17);
  const bool checkpoint =
      params.bool_or("checkpoint", !config_.checkpoint_root.empty());

  // Streaming + resume (docs/SERVING.md). The cursor's unit_index counts
  // finished work units (unit 0 = baseline), so valid values span
  // [0, trials + 1]; its digest must match this campaign's — a cursor
  // from a different configuration is a client bug, not a tail to skip.
  const bool stream = params.bool_or("stream", false);
  const std::int64_t stream_every = params.i64_or("stream_every", 1);
  if (stream_every < 1) return reject("stream_every must be >= 1");
  std::uint64_t cursor_units = 0;
  std::string cursor_digest;
  if (const JsonValue* rc = params.find("resume_cursor")) {
    if (!rc->is_object()) return reject("resume_cursor must be an object");
    cursor_digest = rc->str_or("digest", "");
    if (cursor_digest.empty()) {
      return reject("resume_cursor needs a string 'digest'");
    }
    const std::int64_t index = rc->i64_or("unit_index", -1);
    if (index < 0 || index > trials + 1) {
      return reject("resume_cursor.unit_index must be in [0, trials + 1]");
    }
    cursor_units = static_cast<std::uint64_t>(index);
  }

  const MultiplierNetlist mult =
      build_multiplier(*arch, static_cast<int>(width));
  const double crit = critical_path_ps(mult, tech_);
  Rng rng(kWorkloadSeed);
  const auto patterns =
      uniform_patterns(rng, static_cast<int>(width),
                       static_cast<std::size_t>(ops));

  VlSystemConfig cfg;
  cfg.period_ps = period_frac * crit;
  cfg.ahl.width = static_cast<int>(width);
  cfg.ahl.skip = default_skip(static_cast<int>(width));
  cfg.razor.metastability_window_ps = 5.0;
  cfg.razor.edge_escape_prob = 0.5;

  FaultCampaignConfig cc;
  cc.kind = *kind;
  cc.trials = static_cast<int>(trials);
  cc.sites_per_trial = static_cast<int>(sites);
  cc.delay_factor = delay_factor;
  cc.seed = seed;
  const FaultCampaign campaign(mult, tech_, cfg, cc);

  runtime::RunnerConfig runner_config = config_.runner;
  runner_config.stop = &cancel;
  // Declared first so the store closes its segment before the lock is
  // released: a segment held open is invisible to the next load().
  std::unique_lock<std::mutex> digest_lock;  // held through campaign.run
  std::optional<runtime::CheckpointStore> store;
  const std::uint64_t digest = campaign.config_digest(patterns);
  if (!cursor_digest.empty() && cursor_digest != digest_hex(digest)) {
    return reject("resume_cursor.digest '" + cursor_digest +
                  "' does not match this campaign (" + digest_hex(digest) +
                  ")");
  }
  if (checkpoint && !config_.checkpoint_root.empty()) {
    digest_lock = std::unique_lock(campaign_digest_mutex(digest));
    // Resume-by-default: the store is keyed by the campaign digest, so a
    // daemon restarted after SIGKILL finishes the remaining units and
    // returns bytes identical to an uninterrupted run (docs/SERVING.md).
    store.emplace(std::filesystem::path(config_.checkpoint_root) /
                      ("ck-" + digest_hex(digest)),
                  digest);
    const runtime::CheckpointScan scan = store->load();
    if (scan.discarded > 0) {
      std::fprintf(stderr,
                   "serve: campaign %s: discarded %zu damaged or stale "
                   "checkpoint records\n",
                   digest_hex(digest).c_str(), scan.discarded);
    }
    runner_config.checkpoints = &*store;
  }

  runtime::RobustRunner runner(runner_config);
  runtime::RunReport report;
  CampaignRunOptions run_options;
  run_options.runner = &runner;
  run_options.report = &report;
  // Progress frames, emitted in strict frontier order: seq equals
  // units_done, so the frame stream is a pure function of campaign
  // progress — a dropped client's pre-drop bytes concatenated with the
  // resumed tail equal an uninterrupted run's bytes. Frames at or below
  // the resume cursor are suppressed (the client already has them); a
  // failed emit stops frames but never the campaign, whose units keep
  // checkpointing for the re-attach.
  bool client_gone = false;
  if (stream && emit) {
    run_options.progress = [&](std::uint64_t units_done,
                               std::uint64_t units_total,
                               const FaultCampaignStats& partial) {
      if (client_gone || units_done <= cursor_units) return;
      if (units_done % static_cast<std::uint64_t>(stream_every) != 0 &&
          units_done != units_total) {
        return;
      }
      JsonWriter pj;
      pj.begin_object();
      write_campaign_stats(pj, partial);
      pj.end_object();
      if (!emit(stream_frame(request.id, units_done, units_done, units_total,
                             pj.str()))) {
        client_gone = true;
      }
    };
  }
  FaultCampaignStats stats;
  try {
    stats = campaign.run(patterns, run_options);
  } catch (const runtime::RunError& e) {
    if (cancel.cancelled() || report.interrupted()) {
      return cancelled_result(cancel, "campaign");
    }
    return HandlerResult{.ok = false,
                         .result_json = {},
                         .code = ErrorCode::kInternal,
                         .message = e.what()};
  }

  // Response bytes must be identical whether the campaign was computed in
  // one go or resumed across restarts, so only deterministic campaign
  // content goes here — computed/restored splits live in the metrics.
  JsonWriter json;
  json.begin_object();
  json.key("arch").value(arch_name);
  json.key("width").value(static_cast<std::int64_t>(width));
  json.key("kind").value(kind_name);
  json.key("configured_trials").value(static_cast<std::int64_t>(trials));
  json.key("sites_per_trial").value(static_cast<std::int64_t>(sites));
  json.key("seed").value(seed);
  json.key("period_ps").value(cfg.period_ps);
  json.key("campaign_digest").value(digest_hex(digest));
  // Always present (streamed or not): where a future request would resume.
  // unit_index = trials + 1 marks a finished campaign — re-attaching with
  // it streams nothing and returns this same final response.
  json.key("resume_cursor").begin_object();
  json.key("digest").value(digest_hex(digest));
  json.key("unit_index")
      .value(static_cast<std::int64_t>(trials + 1));
  json.end_object();
  json.key("stats").begin_object();
  write_campaign_stats(json, stats);
  json.end_object();
  json.end_object();
  return ok_result(json.str());
}

HandlerResult Service::handle_work(const JsonValue& params,
                                   const runtime::CancelToken& cancel) {
  service_metrics().work.add();
  const std::int64_t spin_us = params.i64_or("spin_us", 1000);
  if (spin_us < 0 || spin_us > kMaxSpinUs) {
    return bad_request("spin_us must be in [0, " + std::to_string(kMaxSpinUs) +
                       "]");
  }
  // Calibrated busy work, mutated-style (SNIPPETS.md snippet 3): occupy a
  // worker for a precise duration so load tests can dial in a known
  // service time. Clock-paced rather than iteration-paced — the load
  // generator cares about service *time*, not instruction count.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(spin_us);
  std::uint64_t mix = 0x9E3779B97F4A7C15ULL;
  std::uint64_t iters = 0;
  while (Clock::now() < deadline) {
    for (int i = 0; i < 512; ++i) {
      mix ^= mix << 13;
      mix ^= mix >> 7;
      mix ^= mix << 17;
      ++iters;
    }
    if (cancel.cancelled()) return cancelled_result(cancel, "work spin");
  }
  JsonWriter json;
  json.begin_object();
  json.key("spun_us").value(spin_us);
  json.key("iters").value(iters);
  // `mix` is consumed so the spin loop cannot be optimized away.
  json.key("mix_low_bit").value(static_cast<std::int64_t>(mix & 1));
  json.end_object();
  return ok_result(json.str());
}

}  // namespace agingsim::serve
