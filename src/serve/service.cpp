#include "src/serve/service.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

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

HandlerResult failure(ErrorCode code, std::string message) {
  return HandlerResult{.ok = false,
                       .result_json = {},
                       .code = code,
                       .message = std::move(message)};
}

HandlerResult cancelled_during(const char* where) {
  return failure(ErrorCode::kCancelled, std::string("cancelled during ") + where);
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

/// Sets the bad_request message of a failed check.
bool fail(std::string& error, std::string message) {
  error = std::move(message);
  return false;
}

// Each check reads one param, or its default when absent, into `out`; a
// value out of range fills `error` and returns false.

template <typename T>
bool read_int(const JsonValue& params, std::string_view key,
              std::int64_t fallback, std::int64_t lo, std::int64_t hi,
              T& out, std::string& error) {
  const std::int64_t value = params.i64_or(key, fallback);
  if (value < lo || value > hi) {
    return fail(error, std::string(key) + " must be in [" +
                           std::to_string(lo) + ", " + std::to_string(hi) +
                           "]");
  }
  out = static_cast<T>(value);
  return true;
}

// The checks that queries and campaigns share, each written once.

bool read_circuit(const JsonValue& params, CircuitParams& out,
                  std::string& error) {
  out.arch_name = params.str_or("arch", "cb");
  // The service models AM, CB and RB; no Wallace tree.
  const auto arch = parse_arch(out.arch_name);
  if (!arch || *arch == MultiplierArch::kWallaceTree) {
    return fail(error, "arch must be am|cb|rb");
  }
  out.arch = *arch;
  return read_int(params, "width", 16, Service::kMinWidth, Service::kMaxWidth,
                  out.width, error);
}

bool read_ops(const JsonValue& params, std::int64_t fallback,
              std::size_t& out, std::string& error) {
  return read_int(params, "ops", fallback, 1, kMaxOps, out, error);
}

bool read_period_frac(const JsonValue& params, double& out,
                      std::string& error) {
  out = params.num_or("period_frac", 0.58);
  if (!(out > 0.0) || out > 4.0) {
    return fail(error, "period_frac must be in (0, 4]");
  }
  return true;
}

// A method's params are checked in a fixed order, so a request with several
// bad params always gets the first one's message.

bool parse_query(const JsonValue& params, QueryParams& q,
                 std::string& error) {
  if (!read_circuit(params, q, error)) return false;
  q.years = params.num_or("years", 0.0);
  if (!(q.years >= 0.0) || q.years > kMaxYears) {
    return fail(error,
                "years must be in [0, " + std::to_string(kMaxYears) + "]");
  }
  if (!read_ops(params, 2000, q.ops, error) ||
      !read_period_frac(params, q.period_frac, error)) {
    return false;
  }
  const std::int64_t skip = params.i64_or("skip", default_skip(q.width));
  if (skip < 1 || skip >= q.width) {
    return fail(error, "skip must be in [1, width)");
  }
  q.skip = static_cast<int>(skip);
  q.adaptive = params.bool_or("adaptive", true);
  q.workload_seed = params.u64_or("seed", kWorkloadSeed);
  q.corner_key = query_corner_digest(q);
  return true;
}

bool parse_campaign(const JsonValue& params, CampaignParams& c,
                    std::string& error) {
  FaultCampaignConfig& f = c.faults;
  if (!read_circuit(params, c, error) ||
      !read_int(params, "trials", 32, 1, kMaxTrials, f.trials, error) ||
      !read_ops(params, 1000, c.ops, error) ||
      !read_int(params, "sites", 2, 1, 64, f.sites_per_trial, error)) {
    return false;
  }
  c.kind_name = params.str_or("kind", "delay");
  const auto kind = parse_fault_kind(c.kind_name);
  if (!kind.has_value()) {
    return fail(error, "kind must be stuck0|stuck1|transient|delay");
  }
  f.kind = *kind;
  f.delay_factor = params.num_or("delay_factor", 8.0);
  if (!(f.delay_factor > 0.0)) return fail(error, "delay_factor must be > 0");
  if (!read_period_frac(params, c.period_frac, error)) return false;
  f.seed = params.u64_or("seed", 0xFA17);
  c.checkpoint = params.bool_or("checkpoint", true);

  // Streaming + resume (docs/SERVING.md). The cursor's unit_index counts
  // finished work units (unit 0 = baseline), so valid values span
  // [0, trials + 1].
  c.stream = params.bool_or("stream", false);
  c.stream_every = params.i64_or("stream_every", 1);
  if (c.stream_every < 1) return fail(error, "stream_every must be >= 1");
  if (const JsonValue* rc = params.find("resume_cursor")) {
    if (!rc->is_object()) return fail(error, "resume_cursor must be an object");
    c.cursor_digest = rc->str_or("digest", "");
    if (c.cursor_digest.empty()) {
      return fail(error, "resume_cursor needs a string 'digest'");
    }
    const std::int64_t index = rc->i64_or("unit_index", -1);
    if (index < 0 || index > f.trials + 1) {
      return fail(error,
                  "resume_cursor.unit_index must be in [0, trials + 1]");
    }
    c.cursor_units = static_cast<std::uint64_t>(index);
  }
  return true;
}

}  // namespace

Service::Service(ServiceConfig config, AgedStateCache* cache)
    : config_(std::move(config)), cache_(cache), tech_(service_tech()) {}

const Service::Circuit& Service::circuit(MultiplierArch arch, int width) {
  CircuitSlot& slot =
      circuits_.at(static_cast<std::size_t>(arch) *
                       (kMaxWidth - kMinWidth + 1) +
                   static_cast<std::size_t>(width - kMinWidth));
  std::call_once(slot.built, [&] {
    MultiplierNetlist mult = build_multiplier(arch, width);
    const double crit = critical_path_ps(mult, tech_);
    slot.circuit.emplace(Circuit{std::move(mult), crit});
  });
  return *slot.circuit;
}

std::optional<RequestParams> Service::parse(const Request& request,
                                            std::string& error) {
  RequestParams params;
  bool ok = false;
  if (request.method == "query") {
    ok = parse_query(request.params, params.emplace<QueryParams>(), error);
  } else if (request.method == "campaign") {
    ok = parse_campaign(request.params, params.emplace<CampaignParams>(),
                        error);
  } else if (request.method == "work") {
    ok = read_int(request.params, "spin_us", 1000, 0, kMaxSpinUs,
                  params.emplace<WorkParams>().spin_us, error);
  } else {
    error = "method '" + request.method + "' is not a queueable method";
  }
  if (!ok) return std::nullopt;
  return params;
}

HandlerResult Service::handle(std::uint64_t id, const RequestParams& params,
                              const runtime::CancelToken& cancel,
                              const StreamEmitter& emit) noexcept {
  try {
    obs::TraceSpan span("serve.handle", id);
    if (const auto* q = std::get_if<QueryParams>(&params)) {
      return handle_query(*q, cancel);
    }
    if (const auto* c = std::get_if<CampaignParams>(&params)) {
      return handle_campaign(id, *c, cancel, emit);
    }
    return handle_work(std::get<WorkParams>(params), cancel);
  } catch (const std::exception& e) {
    return failure(ErrorCode::kInternal, e.what());
  } catch (...) {
    return failure(ErrorCode::kInternal, "unknown exception");
  }
}

HandlerResult Service::handle_query(const QueryParams& q,
                                    const runtime::CancelToken& cancel) {
  service_metrics().queries.add();
  const std::uint64_t key = q.corner_key;
  const Circuit& circuit = this->circuit(q.arch, q.width);

  bool cache_hit = true;
  std::shared_ptr<const AgedCorner> corner =
      cache_ != nullptr ? cache_->get(key) : nullptr;
  if (corner == nullptr) {
    cache_hit = false;
    service_metrics().corner_refills.add();
    obs::TraceSpan refill_span("serve.corner_refill", key);
    if (cancel.cancelled()) return cancelled_during("corner refill");
    auto fresh = std::make_shared<AgedCorner>();
    fresh->critical_path_ps = circuit.fresh_critical_path_ps;
    std::vector<double> delay_scales;  // empty: the fresh circuit
    if (q.years > 0.0) {
      const BtiModel model = BtiModel::calibrated(tech_);
      const AgingScenario scenario(circuit.mult.netlist, tech_, model,
                                   kStressSeed, kStressPatterns);
      delay_scales = scenario.delay_scales_at(q.years);
      fresh->mean_dvth_v = scenario.mean_dvth_at(q.years);
      fresh->critical_path_ps =
          critical_path_ps(circuit.mult, tech_, delay_scales);
    }
    if (cancel.cancelled()) return cancelled_during("corner refill");
    Rng rng(q.workload_seed);
    const auto patterns = uniform_patterns(rng, q.width, q.ops);
    fresh->trace = compute_op_trace(
        circuit.mult, tech_, patterns,
        TraceOptions{.gate_delay_scale = delay_scales});
    corner = std::move(fresh);
    if (cache_ != nullptr) cache_->put(key, corner);
  }
  if (cancel.cancelled()) return cancelled_during("query replay");

  VlSystemConfig cfg;
  cfg.period_ps = q.period_frac * corner->critical_path_ps;
  cfg.ahl.width = q.width;
  cfg.ahl.skip = q.skip;
  cfg.ahl.adaptive = q.adaptive;
  VariableLatencySystem sys(circuit.mult, tech_, cfg);
  const RunStats stats = sys.run(corner->trace, corner->mean_dvth_v);

  JsonWriter json;
  json.begin_object();
  json.key("arch").value(q.arch_name);
  json.key("width").value(q.width);
  json.key("years").value(q.years);
  json.key("corner_digest").value(digest_hex(key));
  json.key("cache_hit").value(cache_hit);
  json.key("stats").begin_object();
  write_run_stats(json, stats);
  json.end_object();
  json.end_object();
  return ok_result(json.str());
}

HandlerResult Service::handle_campaign(std::uint64_t id,
                                       const CampaignParams& c,
                                       const runtime::CancelToken& cancel,
                                       const StreamEmitter& emit) {
  service_metrics().campaigns.add();
  const Circuit& circuit = this->circuit(c.arch, c.width);
  Rng rng(kWorkloadSeed);
  const auto patterns = uniform_patterns(rng, c.width, c.ops);

  VlSystemConfig cfg;
  cfg.period_ps = c.period_frac * circuit.fresh_critical_path_ps;
  cfg.ahl.width = c.width;
  cfg.ahl.skip = default_skip(c.width);
  cfg.razor.metastability_window_ps = 5.0;
  cfg.razor.edge_escape_prob = 0.5;

  const FaultCampaign campaign(circuit.mult, tech_, cfg, c.faults);

  runtime::RunnerConfig runner_config = config_.runner;
  runner_config.stop = &cancel;
  // Declared first so the store closes its segment before the lock is
  // released: a segment held open is invisible to the next load().
  std::unique_lock<std::mutex> digest_lock;  // held through campaign.run
  std::optional<runtime::CheckpointStore> store;
  const std::uint64_t digest = campaign.config_digest(patterns);
  // A cursor from a different configuration is a client bug, not a tail
  // to skip.
  if (!c.cursor_digest.empty() && c.cursor_digest != digest_hex(digest)) {
    return failure(ErrorCode::kBadRequest,
                   "resume_cursor.digest '" + c.cursor_digest +
                       "' does not match this campaign (" +
                       digest_hex(digest) + ")");
  }
  if (c.checkpoint && !config_.checkpoint_root.empty()) {
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
  if (c.stream && emit) {
    run_options.progress = [&](std::uint64_t units_done,
                               std::uint64_t units_total,
                               const FaultCampaignStats& partial) {
      if (client_gone || units_done <= c.cursor_units) return;
      if (units_done % static_cast<std::uint64_t>(c.stream_every) != 0 &&
          units_done != units_total) {
        return;
      }
      JsonWriter pj;
      pj.begin_object();
      write_campaign_stats(pj, partial);
      pj.end_object();
      if (!emit(stream_frame(id, units_done, units_done, units_total,
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
      return cancelled_during("campaign");
    }
    return failure(ErrorCode::kInternal, e.what());
  }

  // Response bytes must be identical whether the campaign was computed in
  // one go or resumed across restarts, so only deterministic campaign
  // content goes here — computed/restored splits live in the metrics.
  JsonWriter json;
  json.begin_object();
  json.key("arch").value(c.arch_name);
  json.key("width").value(c.width);
  json.key("kind").value(c.kind_name);
  json.key("configured_trials").value(c.faults.trials);
  json.key("sites_per_trial").value(c.faults.sites_per_trial);
  json.key("seed").value(c.faults.seed);
  json.key("period_ps").value(cfg.period_ps);
  json.key("campaign_digest").value(digest_hex(digest));
  // Always present (streamed or not): where a future request would resume.
  // unit_index = trials + 1 marks a finished campaign — re-attaching with
  // it streams nothing and returns this same final response.
  json.key("resume_cursor").begin_object();
  json.key("digest").value(digest_hex(digest));
  json.key("unit_index").value(c.faults.trials + 1);
  json.end_object();
  json.key("stats").begin_object();
  write_campaign_stats(json, stats);
  json.end_object();
  json.end_object();
  return ok_result(json.str());
}

HandlerResult Service::handle_work(const WorkParams& w,
                                   const runtime::CancelToken& cancel) {
  service_metrics().work.add();
  // Calibrated busy work, mutated-style (SNIPPETS.md snippet 3): occupy a
  // worker for a precise duration so load tests can dial in a known
  // service time. Clock-paced rather than iteration-paced — the load
  // generator cares about service *time*, not instruction count.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(w.spin_us);
  std::uint64_t mix = 0x9E3779B97F4A7C15ULL;
  std::uint64_t iters = 0;
  while (Clock::now() < deadline) {
    for (int i = 0; i < 512; ++i) {
      mix ^= mix << 13;
      mix ^= mix >> 7;
      mix ^= mix << 17;
      ++iters;
    }
    if (cancel.cancelled()) return cancelled_during("work spin");
  }
  JsonWriter json;
  json.begin_object();
  json.key("spun_us").value(w.spin_us);
  json.key("iters").value(iters);
  // `mix` is consumed so the spin loop cannot be optimized away.
  json.key("mix_low_bit").value(static_cast<std::int64_t>(mix & 1));
  json.end_object();
  return ok_result(json.str());
}

}  // namespace agingsim::serve
