#include "src/fault/campaign.hpp"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/core/quantile.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/fold.hpp"
#include "src/runtime/serial.hpp"
#include "src/runtime/stats_codec.hpp"
#include "src/sim/corner_sim.hpp"
#include "src/sim/timing_sim.hpp"

namespace agingsim {
namespace {

struct CampaignMetrics {
  const obs::Counter& runs = obs::counter("campaign.runs");
  const obs::Counter& overlays = obs::counter("campaign.overlays_sampled");
  const obs::Counter& baselines = obs::counter("campaign.baseline_runs");
  const obs::Counter& trials = obs::counter("campaign.trials_completed");
  // One per pool lane, so it follows the thread count.
  const obs::Counter& trace_segments =
      obs::counter("campaign.trace_segments", /*deterministic=*/false);
};

const CampaignMetrics& campaign_metrics() {
  static const CampaignMetrics m;
  return m;
}

// Shared between the final aggregation and the streaming progress path so
// a partial snapshot at units_done = n+1 is byte-identical to a full run
// over n trials — the streaming resume contract depends on the two never
// diverging.
struct TrialAccumulator {
  FaultCampaignStats agg;
  std::uint64_t total_cycles = 0;

  explicit TrialAccumulator(FaultKind kind) { agg.kind = kind; }

  void add_trial(const RunStats& s, std::uint64_t faults) {
    ++agg.trials;
    agg.ops += s.ops;
    agg.faults_injected += faults;
    agg.detected_violations += s.errors;
    agg.escaped_violations += s.razor_escapes;
    agg.uncovered_violations += s.undetected;
    agg.sdc_ops += s.sdc_ops;
    agg.masked_faults += s.masked_faults;
    if (s.sdc_ops > 0) ++agg.trials_with_sdc;
    agg.storm_engagements += s.storm_engagements;
    agg.storm_recoveries += s.storm_recoveries;
    total_cycles += s.total_cycles;
  }

  /// Aggregate with the derived fields filled in.
  FaultCampaignStats finalize(const RunStats& baseline) const {
    FaultCampaignStats out = agg;
    out.avg_cycles_baseline = baseline.avg_cycles;
    out.baseline_errors_per_10k_ops = baseline.errors_per_10k_ops;
    const std::uint64_t violations = out.detected_violations +
                                     out.escaped_violations +
                                     out.uncovered_violations;
    out.detection_coverage =
        violations == 0 ? 1.0
                        : static_cast<double>(out.detected_violations) /
                              static_cast<double>(violations);
    if (out.ops > 0) {
      out.sdc_per_10k_ops = static_cast<double>(out.sdc_ops) * 10000.0 /
                            static_cast<double>(out.ops);
      out.avg_cycles_faulty =
          static_cast<double>(total_cycles) / static_cast<double>(out.ops);
    }
    if (out.avg_cycles_baseline > 0.0) {
      out.throughput_degradation =
          out.avg_cycles_faulty / out.avg_cycles_baseline - 1.0;
    }
    return out;
  }
};

/// A campaign's fault-free trace, computed on first use in word-aligned
/// segments. A unit that needs it claims the lowest unclaimed segment and
/// computes it, then the next, and waits only on segments that other
/// units hold. A segment that throws goes back unclaimed and the error
/// propagates to its unit. Restored units never ask for the trace.
class SharedTrace {
 public:
  /// Writes ops [first, first + out.size()) of the trace.
  using Compute = std::function<void(std::size_t first, std::span<OpTrace>)>;

  /// `segments` is clamped to [1, words], the ops' 64-op words, which the
  /// segments split as evenly as whole words allow.
  SharedTrace(std::size_t ops, std::size_t segments, Compute compute)
      : size_(ops),
        words_((ops + kBatchLanes - 1) / kBatchLanes),
        state_(std::clamp<std::size_t>(segments, 1,
                                       std::max<std::size_t>(words_, 1)),
               State::kFree),
        compute_(std::move(compute)) {}

  std::span<const OpTrace> get() {
    std::unique_lock lock(mutex_);
    // Sized by the first unit that asks: a run whose units are all
    // restored allocates nothing.
    if (ops_.size() != size_) ops_.resize(size_);
    const auto free = [&] { return std::ranges::find(state_, State::kFree); };
    while (done_ < state_.size()) {
      // A segment another unit holds ends done or free again.
      changed_.wait(lock, [&] {
        return done_ == state_.size() || free() != state_.end();
      });
      const auto claimed = free();
      if (claimed == state_.end()) break;
      *claimed = State::kHeld;
      const auto s = static_cast<std::size_t>(claimed - state_.begin());
      lock.unlock();
      try {
        compute_segment(s);
      } catch (...) {
        lock.lock();
        state_[s] = State::kFree;
        changed_.notify_all();
        throw;
      }
      lock.lock();
      state_[s] = State::kDone;
      ++done_;
      changed_.notify_all();
    }
    return ops_;
  }

 private:
  enum class State : std::uint8_t { kFree, kHeld, kDone };

  void compute_segment(std::size_t s) {
    obs::TraceSpan span("campaign.trace_segment", s);
    campaign_metrics().trace_segments.add();
    const auto op_of = [&](std::size_t seg) {
      return std::min(ops_.size(),
                      seg * words_ / state_.size() * kBatchLanes);
    };
    const std::size_t first = op_of(s);
    compute_(first, std::span(ops_).subspan(first, op_of(s + 1) - first));
  }

  std::size_t size_;
  std::size_t words_;
  std::mutex mutex_;
  std::vector<OpTrace> ops_;  // sized under mutex_; segments fill ranges
  std::condition_variable changed_;
  std::vector<State> state_;  // per segment, guarded by mutex_
  std::size_t done_ = 0;      // guarded by mutex_
  Compute compute_;
};

/// The dense overlay of one trial's sites. Built only while that trial is
/// simulated: a campaign keeps its trials as site lists.
FaultOverlay build_overlay(std::size_t num_gates,
                           std::span<const FaultSite> sites) {
  FaultOverlay overlay(num_gates);
  for (const FaultSite& site : sites) overlay.add(site);
  return overlay;
}

}  // namespace

FaultOverlay output_cone_delay_overlay(const Netlist& netlist, double factor,
                                       int stride) {
  if (stride < 1) {
    throw std::invalid_argument(
        "output_cone_delay_overlay: stride must be >= 1");
  }
  FaultOverlay overlay(netlist.num_gates());
  const auto outs = netlist.output_nets();
  for (std::size_t i = 0; i < outs.size();
       i += static_cast<std::size_t>(stride)) {
    const std::int32_t driver = netlist.driver_of(outs[i]);
    if (driver < 0) continue;  // output fed directly by a primary input
    overlay.add({.kind = FaultKind::kDelayOutlier,
                 .gate = static_cast<GateId>(driver),
                 .delay_factor = factor});
  }
  return overlay;
}

double delay_percentile_ps(std::span<const OpTrace> trace, double q) {
  if (trace.empty()) return 0.0;
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("delay_percentile_ps: q must be in [0, 1]");
  }
  std::vector<double> delays;
  delays.reserve(trace.size());
  for (const OpTrace& op : trace) delays.push_back(op.delay_ps);
  std::sort(delays.begin(), delays.end());
  return quantile::nearest_rank(delays, q);
}

double max_delay_ps(std::span<const OpTrace> trace) {
  double max = 0.0;
  for (const OpTrace& op : trace) max = std::max(max, op.delay_ps);
  return max;
}

FaultCampaign::FaultCampaign(const MultiplierNetlist& mult,
                             const TechLibrary& tech, VlSystemConfig system,
                             FaultCampaignConfig config)
    : mult_(&mult), tech_(&tech), system_(system), config_(config) {
  if (config.trials < 1) {
    throw std::invalid_argument("FaultCampaign: trials must be >= 1");
  }
  if (config.sites_per_trial < 1) {
    throw std::invalid_argument(
        "FaultCampaign: sites_per_trial must be >= 1");
  }
  if (config.kind == FaultKind::kDelayOutlier &&
      !(config.delay_factor > 0.0)) {
    throw std::invalid_argument("FaultCampaign: delay factor must be > 0");
  }
}

FaultOverlay FaultCampaign::sample_overlay(Rng& rng,
                                           std::size_t num_ops) const {
  return build_overlay(mult_->netlist.num_gates(),
                       sample_sites(rng, num_ops));
}

std::vector<FaultSite> FaultCampaign::sample_sites(Rng& rng,
                                                   std::size_t num_ops) const {
  const std::size_t num_gates = mult_->netlist.num_gates();
  std::vector<FaultSite> sites;
  sites.reserve(static_cast<std::size_t>(config_.sites_per_trial));
  for (int i = 0; i < config_.sites_per_trial; ++i) {
    FaultSite site;
    site.kind = config_.kind;
    site.gate = static_cast<GateId>(rng.next_below(num_gates));
    if (config_.kind == FaultKind::kTransient) {
      // Skip cycle 0: the power-up step transitions every net from X, so a
      // strike there is indistinguishable from initialization.
      site.cycle = num_ops > 1
                       ? 1 + static_cast<std::int64_t>(
                                 rng.next_below(num_ops - 1))
                       : 0;
    } else if (config_.kind == FaultKind::kDelayOutlier) {
      site.delay_factor = config_.delay_factor;
    }
    sites.push_back(site);
  }
  return sites;
}

std::vector<RunStats> FaultCampaign::score_lanes(
    std::span<const OperandPattern> patterns, std::span<const OpTrace> clean,
    const CampaignRunOptions& options,
    std::span<const std::vector<FaultSite>> sites, std::size_t group,
    std::size_t groups) const {
  obs::TraceSpan span("campaign.group", group);
  const MultiplierNetlist& mult = *mult_;
  CornerTimingSim sim(mult.netlist, *tech_);
  int lanes = 0;
  for (std::size_t t = group; t < sites.size(); t += groups) {
    const FaultOverlay overlay =
        build_overlay(mult.netlist.num_gates(), sites[t]);
    sim.set_lane_scales(lanes++, options.gate_delay_scale, &overlay);
  }
  sim.power_up(lanes);

  const VariableLatencySystem system(mult, *tech_, system_);
  std::vector<VariableLatencySystem::Replay> replays(
      static_cast<std::size_t>(lanes), VariableLatencySystem::Replay(system));
  std::vector<std::uint64_t> words(mult.netlist.num_inputs());
  for (std::size_t first = 0; first < patterns.size(); first += kBatchLanes) {
    const int count = static_cast<int>(
        std::min<std::size_t>(kBatchLanes, patterns.size() - first));
    load_word(words, mult, patterns.subspan(first, std::size_t(count)));
    const std::span<const double> settle = sim.step_word(words, count);
    // A delay outlier moves no value, so each lane's op is the fault-free
    // op with the lane's delay; a persistent fault is active on every op
    // (FaultOverlay::active_at).
    for (int p = 0; p < count; ++p) {
      OpTrace op = clean[first + static_cast<std::size_t>(p)];
      op.fault_active = true;
      for (int l = 0; l < lanes; ++l) {
        op.delay_ps = settle[static_cast<std::size_t>(p * kCornerLanes + l)];
        replays[static_cast<std::size_t>(l)].step(op);
      }
    }
  }
  std::vector<RunStats> stats;
  stats.reserve(replays.size());
  for (const VariableLatencySystem::Replay& replay : replays) {
    stats.push_back(replay.finish(options.mean_dvth_v));
  }
  return stats;
}

std::uint64_t FaultCampaign::config_digest(
    std::span<const OperandPattern> patterns,
    std::span<const double> gate_delay_scale, double mean_dvth_v) const {
  runtime::Digest d;
  d.mix(std::string_view("FaultCampaign/v1"));
  d.mix(mult_->width)
      .mix(static_cast<std::uint64_t>(mult_->netlist.num_gates()))
      .mix(static_cast<std::uint64_t>(mult_->netlist.num_nets()));
  d.mix(system_.period_ps)
      .mix(system_.razor_seed)
      .mix(system_.ahl.width)
      .mix(system_.ahl.skip)
      .mix(system_.ahl.adaptive)
      .mix(system_.ahl.second_block_offset)
      .mix(system_.ahl.indicator.window_ops)
      .mix(system_.ahl.indicator.error_threshold)
      .mix(system_.ahl.indicator.sticky)
      .mix(system_.ahl.storm_fallback)
      .mix(system_.ahl.storm_error_threshold)
      .mix(system_.ahl.storm_calm_windows)
      .mix(system_.razor.shadow_window_cycles)
      .mix(system_.razor.reexec_penalty_cycles)
      .mix(system_.razor.metastability_window_ps)
      .mix(system_.razor.edge_escape_prob);
  d.mix(static_cast<int>(config_.kind))
      .mix(config_.trials)
      .mix(config_.sites_per_trial)
      .mix(config_.delay_factor)
      .mix(config_.seed);
  d.mix(static_cast<std::uint64_t>(patterns.size()));
  for (const OperandPattern& p : patterns) d.mix(p.a).mix(p.b);
  d.mix(static_cast<std::uint64_t>(gate_delay_scale.size()));
  for (const double s : gate_delay_scale) d.mix(s);
  d.mix(mean_dvth_v);
  return d.value();
}

FaultCampaignStats FaultCampaign::run(std::span<const OperandPattern> patterns,
                                      const CampaignRunOptions& options) const {
  const std::span<const double> gate_delay_scale = options.gate_delay_scale;
  const double mean_dvth_v = options.mean_dvth_v;
  obs::TraceSpan run_span("campaign.run",
                          static_cast<std::uint64_t>(config_.trials));
  campaign_metrics().runs.add();

  // Site sampling draws from one shared Rng, so it stays serial (and
  // bit-identical to the historical single-threaded campaign); the trials
  // themselves are independent and fan out across the pool over the
  // shared, never-mutated netlist. Only the sites are kept per trial: a
  // dense overlay exists only while its trial is simulated.
  Rng rng(config_.seed);
  std::vector<std::vector<FaultSite>> sites;
  sites.reserve(static_cast<std::size_t>(config_.trials));
  for (int trial = 0; trial < config_.trials; ++trial) {
    sites.push_back(sample_sites(rng, patterns.size()));
  }
  campaign_metrics().overlays.add(sites.size());
  const std::size_t trials = sites.size();

  // The fault-free trace: the baseline replays it, and trial lanes take
  // every OpTrace field but the delay from it. On the batch kernel it is
  // split into one segment per lane of the pool the units run on, each
  // started from the state a values-only sweep of the ops before it
  // leaves (compute_op_trace_range); the scalar reference kernels compute
  // it in one.
  const SimKernel kernel = resolve_kernel(options.kernel);
  SharedTrace clean(
      patterns.size(),
      kernel == SimKernel::kBatch
          ? static_cast<std::size_t>(runtime::execution_lanes(options.runner))
          : 1,
      [&](std::size_t first, std::span<OpTrace> out) {
        compute_op_trace_range(
            *mult_, *tech_, patterns, first, out,
            TraceOptions{.gate_delay_scale = gate_delay_scale,
                         .kernel = kernel});
      });

  // Fault-free reference run: the throughput and error-rate baseline the
  // faulty runs are measured against.
  const auto run_baseline = [&] {
    obs::TraceSpan span("campaign.baseline");
    VariableLatencySystem system(*mult_, *tech_, system_);
    auto stats = system.run(clean.get(), mean_dvth_v);
    campaign_metrics().baselines.add();
    return stats;
  };

  // Trial lanes: trial t rides lane t / groups of group t % groups, so the
  // pool, claiming units in index order, starts every group before it
  // revisits one. A group is scored under its own mutex by the first of
  // its trials to run; a score that throws leaves it unscored for a retry.
  const bool lanes = config_.kind == FaultKind::kDelayOutlier &&
                     kernel == SimKernel::kBatch;
  const std::size_t groups =
      lanes ? (trials + kCornerLanes - 1) / kCornerLanes : 0;
  struct LaneGroup {
    std::mutex mutex;
    std::vector<RunStats> stats;  // one per lane once scored
  };
  std::vector<LaneGroup> lane_groups(groups);

  const auto run_trial = [&](std::size_t t) {
    obs::TraceSpan span("campaign.trial", t);
    RunStats stats;
    if (lanes) {
      LaneGroup& group = lane_groups[t % groups];
      std::lock_guard lock(group.mutex);
      if (group.stats.empty()) {
        group.stats = score_lanes(patterns, clean.get(), options, sites,
                                  t % groups, groups);
      }
      stats = group.stats[t / groups];
    } else {
      const FaultOverlay overlay =
          build_overlay(mult_->netlist.num_gates(), sites[t]);
      const auto faulty_trace = compute_op_trace(
          *mult_, *tech_, patterns,
          TraceOptions{.gate_delay_scale = gate_delay_scale,
                       .faults = &overlay,
                       .kernel = kernel});
      VariableLatencySystem trial_system(*mult_, *tech_, system_);
      stats = trial_system.run(faulty_trace, mean_dvth_v);
    }
    campaign_metrics().trials.add();
    return stats;
  };

  // Unit 0 is the baseline, units 1..trials the trials. On the crash-safe
  // path each unit's payload is its bit-exact encoded RunStats, so units
  // restored from a checkpoint aggregate identically to computed ones.
  const std::size_t units = trials + 1;
  runtime::RunReport local_report;
  runtime::UnitFold<RunStats> fold{
      .compute = [&](std::uint64_t unit) {
        return unit == 0 ? run_baseline() : run_trial(unit - 1);
      },
      .encode = runtime::encode_run_stats,
      .decode = runtime::decode_run_stats,
      .runner = options.runner,
      .report = options.report != nullptr ? options.report : &local_report};
  // Streaming: the fold delivers units in strict unit order, serialized,
  // so `stream_acc` needs no locking and the partial at units_done = k
  // covers exactly units [0, k) — unit 0, the baseline, always first.
  TrialAccumulator stream_acc(config_.kind);
  RunStats stream_baseline;
  if (options.progress) {
    fold.progress = [&](std::uint64_t unit, const RunStats& s) {
      if (unit == 0) {
        stream_baseline = s;
      } else {
        stream_acc.add_trial(s, sites[unit - 1].size());
      }
      options.progress(unit + 1, units, stream_acc.finalize(stream_baseline));
    };
  }
  const std::vector<std::optional<RunStats>> stats =
      runtime::run_units(units, fold);
  runtime::throw_if_interrupted(*fold.report, "FaultCampaign");
  if (!stats[0]) {
    throw runtime::RunError(
        runtime::ErrorCategory::kPermanent,
        "FaultCampaign: baseline unit quarantined (" +
            fold.report->units[0].error + "); campaign cannot be normalized");
  }

  // Aggregation runs in trial-index order; every accumulator is an
  // integer, so the totals are independent of scheduling anyway.
  // Quarantined trials contribute nothing but their count.
  TrialAccumulator acc(config_.kind);
  std::uint64_t quarantined = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    if (!stats[t + 1]) {
      ++quarantined;
      continue;
    }
    acc.add_trial(*stats[t + 1], sites[t].size());
  }
  FaultCampaignStats agg = acc.finalize(*stats[0]);
  agg.trials_quarantined = quarantined;
  return agg;
}

}  // namespace agingsim
