#include "src/sim/batch_sim.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "src/netlist/cell.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/batch_sweep.hpp"
#include "src/sim/density_model.hpp"
#include "src/sim/word_eval.hpp"

namespace agingsim {
namespace detail {

#define AGINGSIM_SWEEP_FN run_sweep_generic
#include "src/sim/batch_sweep.inl"
#undef AGINGSIM_SWEEP_FN

}  // namespace detail

namespace {

// Accumulated per word, never per gate (same discipline as the scalar
// kernel's SimMetrics).
struct BatchMetrics {
  const obs::Counter& words = obs::counter("sim.batch.words");
  const obs::Counter& lanes = obs::counter("sim.batch.lanes");
  const obs::Counter& gates = obs::counter("sim.batch.gates_evaluated");
  const obs::Counter& replays = obs::counter("sim.batch.replayed_lanes");
  const obs::Counter& mismatches =
      obs::counter("sim.batch.audit_mismatches");
};

const BatchMetrics& batch_metrics() {
  static const BatchMetrics m;
  return m;
}

bool use_avx2_sweep() {
  static const bool enabled = [] {
    if (!detail::avx2_sweep_available()) return false;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return enabled;
}

}  // namespace

BatchTimingSim::BatchTimingSim(const Netlist& netlist, const TechLibrary& tech,
                               std::span<const double> gate_delay_scale)
    : netlist_(&netlist),
      tech_(&tech),
      replay_sim_(netlist, tech, gate_delay_scale) {
  base_delay_ps_.resize(netlist.num_gates());
  cell_cap_ff_.resize(netlist.num_gates());
  set_aging(gate_delay_scale);
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    cell_cap_ff_[g] = tech.cap(netlist.gate(g).kind);
  }
  const std::size_t nets = netlist.num_nets();
  plane0_.assign(nets, 0);
  plane1_.assign(nets, 0);
  changed_.assign(nets, 0);
  active_.assign(nets, 0);
  word_epoch_.assign(nets, 0);
  last_value_.assign(nets, Logic::kX);  // power-up: nothing driven yet
  word_start_value_.assign(nets, Logic::kX);
  density_.assign(nets * kBatchLanes, 0.0f);
  arrival_.assign(nets * kBatchLanes, 0.0);
  replay_state_.assign(nets, Logic::kX);
  replay_inputs_.assign(netlist.num_inputs(), Logic::kX);
}

void BatchTimingSim::set_aging(std::span<const double> gate_delay_scale) {
  if (!gate_delay_scale.empty() &&
      gate_delay_scale.size() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "BatchTimingSim::set_aging: need one multiplier per gate");
  }
  aging_scale_.assign(gate_delay_scale.begin(), gate_delay_scale.end());
  rebuild_delays();
  force_all_ = true;
  replay_sim_.set_aging(gate_delay_scale);
}

void BatchTimingSim::set_fault_overlay(const FaultOverlay* overlay) {
  if (overlay != nullptr && overlay->num_gates() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "BatchTimingSim::set_fault_overlay: overlay sized for a different "
        "netlist");
  }
  overlay_ = overlay;
  rebuild_delays();
  // Installing or removing stuck-ats changes gate outputs without any fanin
  // edge; the next word sweeps every gate (the scalar force-dense analogue).
  force_all_ = true;
  replay_sim_.set_fault_overlay(overlay);
}

void BatchTimingSim::rebuild_delays() {
  for (GateId g = 0; g < netlist_->num_gates(); ++g) {
    double d = tech_->delay(netlist_->gate(g).kind);
    if (!aging_scale_.empty()) d *= aging_scale_[g];
    if (overlay_ != nullptr) d *= overlay_->delay_factor(g);
    base_delay_ps_[g] = d;
  }
}

void BatchTimingSim::set_timing_audit(std::span<const double> thresholds_ps,
                                      double guard_ps) {
  audit_thresholds_ps_.assign(thresholds_ps.begin(), thresholds_ps.end());
  guard_ps_ = guard_ps;
}

std::span<const StepResult> BatchTimingSim::step_word(
    std::span<const std::uint64_t> input_bits, int lanes) {
  const Netlist& nl = *netlist_;
  if (input_bits.size() != nl.num_inputs()) {
    throw std::invalid_argument("BatchTimingSim::step_word: wrong input count");
  }
  if (lanes < 1 || lanes > kBatchLanes) {
    throw std::invalid_argument(
        "BatchTimingSim::step_word: lanes must be in [1, 64]");
  }
  ++epoch_;
  word_start_value_ = last_value_;
  for (int l = 0; l < lanes; ++l) {
    results_[l] = StepResult{};
    results_[l].gates_total = nl.num_gates();
  }

  // Pre-scan transient strikes: lanes of this word they land in, plus the
  // cleanup spill — a strike on the last lane of the previous word must be
  // un-flipped by lane 0 even if the gate's fanin is stone stable.
  std::vector<std::pair<GateId, std::uint64_t>> transient_masks;
  std::vector<GateId> forced_gates;
  if (overlay_ != nullptr && overlay_->has_transients()) {
    for (const FaultSite& site : overlay_->faults()) {
      if (site.kind != FaultKind::kTransient) continue;
      if (site.cycle >= step_base_ && site.cycle < step_base_ + lanes) {
        const auto lane = static_cast<int>(site.cycle - step_base_);
        transient_masks.emplace_back(site.gate, std::uint64_t{1} << lane);
      }
      if (site.cycle == step_base_ - 1) forced_gates.push_back(site.gate);
    }
    std::sort(transient_masks.begin(), transient_masks.end());
    // Merge lanes of multiple strikes on the same gate.
    std::size_t w = 0;
    for (std::size_t r = 0; r < transient_masks.size(); ++r) {
      if (w > 0 && transient_masks[w - 1].first == transient_masks[r].first) {
        transient_masks[w - 1].second |= transient_masks[r].second;
      } else {
        transient_masks[w++] = transient_masks[r];
      }
    }
    transient_masks.resize(w);
    std::sort(forced_gates.begin(), forced_gates.end());
    forced_gates.erase(std::unique(forced_gates.begin(), forced_gates.end()),
                       forced_gates.end());
  }

  detail::SweepContext ctx;
  ctx.netlist = netlist_;
  ctx.overlay = overlay_;
  ctx.base_delay_ps = base_delay_ps_.data();
  ctx.cell_cap_ff = cell_cap_ff_.data();
  ctx.epoch = epoch_;
  ctx.plane0 = plane0_.data();
  ctx.plane1 = plane1_.data();
  ctx.changed = changed_.data();
  ctx.active = active_.data();
  ctx.word_epoch = word_epoch_.data();
  ctx.last_value = last_value_.data();
  ctx.density = density_.data();
  ctx.arrival = arrival_.data();
  ctx.results = results_.data();
  ctx.input_bits = input_bits.data();
  ctx.lanes = lanes;
  ctx.lane_mask = lanes == kBatchLanes
                      ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << lanes) - 1);
  ctx.force_all = force_all_;
  ctx.transient_masks = transient_masks;
  ctx.forced_gates = forced_gates;

  if (use_avx2_sweep()) {
    detail::run_sweep_avx2(ctx);
  } else {
    detail::run_sweep_generic(ctx);
  }
  force_all_ = false;
  last_lanes_ = lanes;

  // Output settle: max changed-output arrival per lane.
  for (NetId out : nl.output_nets()) {
    if (word_epoch_[out] != epoch_) continue;
    const std::uint64_t ch = changed_[out];
    if (ch == 0) continue;
    const double* arr = arrival_.data() + std::size_t(out) * kBatchLanes;
    for (int l = 0; l < lanes; ++l) {
      if (((ch >> l) & 1u) != 0 && arr[l] > results_[l].output_settle_ps) {
        results_[l].output_settle_ps = arr[l];
      }
    }
  }

  stats_.words += 1;
  stats_.lanes += static_cast<std::uint64_t>(lanes);
  stats_.gates_evaluated += ctx.gates_processed;

  replay_audit(input_bits, lanes);

  step_base_ += lanes;
  if (obs::metrics_enabled()) {
    const BatchMetrics& m = batch_metrics();
    m.words.add();
    m.lanes.add(static_cast<std::uint64_t>(lanes));
    m.gates.add(ctx.gates_processed);
  }
  return {results_.data(), static_cast<std::size_t>(lanes)};
}

void BatchTimingSim::state_at_lane(int lane, std::span<Logic> out) const {
  if (lane < 0) {
    std::copy(word_start_value_.begin(), word_start_value_.end(), out.begin());
    return;
  }
  const std::size_t nets = netlist_->num_nets();
  for (std::size_t n = 0; n < nets; ++n) {
    if (word_epoch_[n] == epoch_) {
      out[n] = static_cast<Logic>(((plane0_[n] >> lane) & 1u) |
                                  (((plane1_[n] >> lane) & 1u) << 1));
    } else {
      out[n] = last_value_[n];  // never moved this word
    }
  }
}

Logic BatchTimingSim::lane_value(NetId net, int lane) const {
  if (lane < 0 || lane >= last_lanes_) {
    throw std::out_of_range("BatchTimingSim::lane_value: lane out of range");
  }
  if (word_epoch_[net] != epoch_) return last_value_[net];
  return static_cast<Logic>(((plane0_[net] >> lane) & 1u) |
                            (((plane1_[net] >> lane) & 1u) << 1));
}

std::uint64_t BatchTimingSim::output_bits(int lane) const {
  const auto outs = netlist_->output_nets();
  if (outs.size() > 64) {
    throw std::logic_error(
        "BatchTimingSim::output_bits: more than 64 outputs");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Logic v = lane_value(outs[i], lane);
    if (!is_known(v)) {
      throw std::logic_error("BatchTimingSim::output_bits: output " +
                             netlist_->output_name(i) + " is unknown");
    }
    if (logic_to_bool(v)) bits |= (std::uint64_t{1} << i);
  }
  return bits;
}

void BatchTimingSim::load_bus_lane(std::span<std::uint64_t> input_bits,
                                   std::uint64_t value, int width,
                                   int first_input, int lane) const {
  if (first_input + width > static_cast<int>(netlist_->num_inputs()) ||
      static_cast<std::size_t>(first_input + width) > input_bits.size()) {
    throw std::invalid_argument(
        "BatchTimingSim::load_bus_lane: bus out of range");
  }
  const std::uint64_t lane_bit = std::uint64_t{1} << lane;
  for (int i = 0; i < width; ++i) {
    if (((value >> i) & 1u) != 0) {
      input_bits[static_cast<std::size_t>(first_input + i)] |= lane_bit;
    } else {
      input_bits[static_cast<std::size_t>(first_input + i)] &= ~lane_bit;
    }
  }
}

void BatchTimingSim::replay_audit(std::span<const std::uint64_t> input_bits,
                                  int lanes) {
  if (guard_ps_ <= 0.0 || audit_thresholds_ps_.empty()) return;
  const auto input_nets = netlist_->input_nets();
  for (int l = 0; l < lanes; ++l) {
    const double settle = results_[l].output_settle_ps;
    bool flagged = false;
    for (const double thr : audit_thresholds_ps_) {
      const double dist = settle > thr ? settle - thr : thr - settle;
      if (dist <= guard_ps_) {
        flagged = true;
        break;
      }
    }
    if (!flagged) continue;

    // Rebuild the scalar state as of lane l-1, re-run lane l through the
    // real scalar kernel, and adopt (after checking) its result.
    state_at_lane(l - 1, replay_state_);
    replay_sim_.install_state(replay_state_, step_base_ + l);
    for (std::size_t i = 0; i < input_nets.size(); ++i) {
      replay_inputs_[i] =
          logic_from_bool(((input_bits[i] >> l) & 1u) != 0);
    }
    const StepResult r = replay_sim_.step(replay_inputs_);
    ++stats_.replayed_lanes;
    if (obs::metrics_enabled()) batch_metrics().replays.add();

    bool mismatch = r.output_settle_ps != results_[l].output_settle_ps ||
                    r.settle_ps != results_[l].settle_ps ||
                    r.toggles != results_[l].toggles ||
                    r.switched_cap_ff != results_[l].switched_cap_ff;
    if (!mismatch) {
      for (NetId n = 0; n < netlist_->num_nets(); ++n) {
        if (replay_sim_.value(n) != lane_value(n, l)) {
          mismatch = true;
          break;
        }
      }
    }
    if (mismatch) {
      ++stats_.audit_mismatches;
      if (obs::metrics_enabled()) batch_metrics().mismatches.add();
    }
    // The audited lane reports the scalar numbers — identical by contract,
    // and literally scalar-produced for anyone auditing the audit.
    results_[l].output_settle_ps = r.output_settle_ps;
    results_[l].settle_ps = r.settle_ps;
    results_[l].toggles = r.toggles;
    results_[l].switched_cap_ff = r.switched_cap_ff;
  }
}

const char* BatchTimingSim::lane_backend() noexcept {
  return use_avx2_sweep() ? "avx2" : "generic";
}

}  // namespace agingsim
