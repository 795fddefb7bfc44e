#include "src/sim/timing_sim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "src/core/env.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/density_model.hpp"

namespace agingsim {
namespace {

// Shared with the batch kernel's lane loops — same literals, or the
// kernel bit-identity guarantee breaks (see density_model.hpp).
using density_model::kBlockedPass;
using density_model::kDensityClamp;
using density_model::kInputCapFf;
using density_model::kStableBlock;

// Everything here accumulates per *step*, never per gate — the per-gate
// loops stay metric-free so an enabled run stays close to a disabled one.
struct SimMetrics {
  const obs::Counter& steps_dense = obs::counter("sim.steps_dense");
  const obs::Counter& steps_sparse = obs::counter("sim.steps_sparse");
  const obs::Counter& gates_evaluated = obs::counter("sim.gates_evaluated");
  // Why a sparse-mode sim fell back to a dense sweep this step:
  const obs::Counter& fallback_swap =
      obs::counter("sim.dense_fallback_swap");  // set_aging/set_fault_overlay
  const obs::Counter& fallback_transient =
      obs::counter("sim.dense_fallback_transient");  // strike or cleanup
  const obs::Counter& aging_swaps = obs::counter("sim.aging_swaps");
  const obs::Counter& overlay_swaps = obs::counter("sim.overlay_swaps");
};

const SimMetrics& sim_metrics() {
  static const SimMetrics m;
  return m;
}

}  // namespace

SimKernel resolve_kernel(SimKernel requested) {
  if (requested != SimKernel::kAuto) return requested;
  static constexpr const char* kChoices[] = {"dense", "sparse", "batch"};
  static constexpr SimKernel kKernels[] = {SimKernel::kDense,
                                           SimKernel::kSparse,
                                           SimKernel::kBatch};
  const auto idx = env::choice_var("AGINGSIM_KERNEL", kChoices);
  return idx.has_value() ? kKernels[*idx] : SimKernel::kBatch;
}

bool bus_fits(int first_input, int width, std::size_t inputs) noexcept {
  return first_input >= 0 && width >= 0 && width <= 64 &&
         static_cast<std::size_t>(first_input) +
                 static_cast<std::size_t>(width) <=
             inputs;
}

const char* kernel_name(SimKernel kernel) noexcept {
  switch (kernel) {
    case SimKernel::kAuto: return "auto";
    case SimKernel::kDense: return "dense";
    case SimKernel::kSparse: return "sparse";
    case SimKernel::kBatch: return "batch";
  }
  return "?";
}

TimingSim::TimingSim(const Netlist& netlist, const TechLibrary& tech,
                     std::span<const double> gate_delay_scale)
    : netlist_(&netlist), tech_(&tech) {
  base_delay_ps_.resize(netlist.num_gates());
  cell_cap_ff_.resize(netlist.num_gates());
  set_aging(gate_delay_scale);
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    cell_cap_ff_[g] = tech.cap(netlist.gate(g).kind);
  }
  value_.assign(netlist.num_nets(), Logic::kX);
  arrival_.assign(netlist.num_nets(), 0.0);
  changed_.assign(netlist.num_nets(), 0);
  density_.assign(netlist.num_nets(), 0.0f);
  net_epoch_.assign(netlist.num_nets(), 0);
  queued_words_.assign((netlist.num_gates() + 63) / 64, 0);
}

void TimingSim::set_aging(std::span<const double> gate_delay_scale) {
  if (!gate_delay_scale.empty() &&
      gate_delay_scale.size() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "TimingSim::set_aging: need one multiplier per gate");
  }
  aging_scale_.assign(gate_delay_scale.begin(), gate_delay_scale.end());
  rebuild_delays();
  force_dense_ = true;
  sim_metrics().aging_swaps.add();
}

void TimingSim::set_fault_overlay(const FaultOverlay* overlay) {
  if (overlay != nullptr && overlay->num_gates() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "TimingSim::set_fault_overlay: overlay sized for a different "
        "netlist");
  }
  overlay_ = overlay;
  rebuild_delays();
  // Installing or removing stuck-ats changes gate outputs without any fanin
  // edge; only a full sweep re-establishes (or releases) them everywhere.
  force_dense_ = true;
  sim_metrics().overlay_swaps.add();
}

void TimingSim::rebuild_delays() {
  for (GateId g = 0; g < netlist_->num_gates(); ++g) {
    double d = tech_->delay(netlist_->gate(g).kind);
    if (!aging_scale_.empty()) d *= aging_scale_[g];
    if (overlay_ != nullptr) d *= overlay_->delay_factor(g);
    base_delay_ps_[g] = d;
  }
}

void load_bus(std::span<Logic> pattern_buffer, std::uint64_t value, int width,
              int first_input) {
  if (!bus_fits(first_input, width, pattern_buffer.size())) {
    throw std::invalid_argument("load_bus: bus out of range");
  }
  for (int i = 0; i < width; ++i) {
    pattern_buffer[static_cast<std::size_t>(first_input + i)] =
        logic_from_bool(((value >> i) & 1u) != 0);
  }
}

void load_bus_lane(std::span<std::uint64_t> input_bits, std::uint64_t value,
                   int width, int first_input, int lane) {
  if (lane < 0 || lane >= kBatchLanes) {
    throw std::invalid_argument("load_bus_lane: lane out of range");
  }
  if (!bus_fits(first_input, width, input_bits.size())) {
    throw std::invalid_argument("load_bus_lane: bus out of range");
  }
  const std::uint64_t lane_bit = std::uint64_t{1} << lane;
  for (int i = 0; i < width; ++i) {
    std::uint64_t& bits = input_bits[static_cast<std::size_t>(first_input + i)];
    bits = ((value >> i) & 1u) != 0 ? bits | lane_bit : bits & ~lane_bit;
  }
}

template <bool kOverlay, bool kTransient>
bool TimingSim::evaluate_gate(GateId g, StepResult& result) {
  const Netlist& nl = *netlist_;
  const Gate& gate = nl.gate(g);
  const auto ins = nl.gate_inputs(g);
  std::array<Logic, 4> in_vals;
  for (std::size_t k = 0; k < ins.size(); ++k) in_vals[k] = value_[ins[k]];

  const Logic prev = value_[gate.out];
  Logic next = eval_cell(gate.kind, {in_vals.data(), ins.size()}, prev);
  if constexpr (kOverlay) {
    // Fault overlay: a stuck-at forces the output unconditionally; a
    // transient armed for this cycle inverts whatever would have settled
    // (X stays X — a strike cannot conjure a known value).
    const Logic stuck = overlay_->stuck_value(g);
    if (stuck != Logic::kX) next = stuck;
    if constexpr (kTransient) {
      if (overlay_->transient_fires(g, step_index_)) next = logic_not(next);
    }
  }

  const auto pass_weight = [this](NetId net, Logic v, Logic controlling) {
    if (v == controlling) return net_changed(net) ? kBlockedPass : kStableBlock;
    if (is_known(v)) return 1.0f;
    return 0.5f;
  };

  // Glitch/activity estimate for this gate, independent of whether the
  // *final* value changed. Every formula is linear in the input densities,
  // so a gate whose fanin is entirely stable computes exactly 0 — which is
  // what lets the sparse kernel skip it without changing any result.
  float density = 0.0f;
  switch (gate.kind) {
    case CellKind::kBuf:
    case CellKind::kInv:
      density = net_density(ins[0]);
      break;
    case CellKind::kXor2:
    case CellKind::kXnor2:
      density = net_density(ins[0]) + net_density(ins[1]);
      break;
    case CellKind::kAnd2:
    case CellKind::kNand2:
    case CellKind::kOr2:
    case CellKind::kNor2: {
      const Logic ctrl = (gate.kind == CellKind::kAnd2 ||
                          gate.kind == CellKind::kNand2)
                             ? Logic::kZero
                             : Logic::kOne;
      density = net_density(ins[0]) * pass_weight(ins[1], in_vals[1], ctrl) +
                net_density(ins[1]) * pass_weight(ins[0], in_vals[0], ctrl);
      break;
    }
    case CellKind::kAnd3:
    case CellKind::kOr3: {
      const Logic ctrl =
          (gate.kind == CellKind::kAnd3) ? Logic::kZero : Logic::kOne;
      for (std::size_t k = 0; k < 3; ++k) {
        float w = 1.0f;
        for (std::size_t j = 0; j < 3; ++j) {
          if (j != k) w *= pass_weight(ins[j], in_vals[j], ctrl);
        }
        density += net_density(ins[k]) * w;
      }
      break;
    }
    case CellKind::kMux2: {
      const std::size_t sel_k = (in_vals[2] == Logic::kOne) ? 1u : 0u;
      const float unselected =
          net_changed(ins[2]) ? kBlockedPass : kStableBlock;
      // Select edges reach the output only while the two data inputs
      // disagree (a mux with equal data is select-insensitive — exact).
      const float sel_visible = (in_vals[0] != in_vals[1]) ? 1.0f : 0.0f;
      density = sel_visible * net_density(ins[2]) + net_density(ins[sel_k]) +
                unselected * net_density(ins[1 - sel_k]);
      break;
    }
    case CellKind::kTbuf:
      if (in_vals[1] == Logic::kOne) {
        // Enable edges matter only when the newly driven value differs
        // from the kept one; count them at half weight.
        density = net_density(ins[0]) + 0.5f * net_density(ins[1]);
      } else {
        // Disabled: the keeper is frozen; only the disable edge itself
        // moves charge.
        density = kBlockedPass * net_density(ins[1]);
      }
      break;
    case CellKind::kTie0:
    case CellKind::kTie1:
    case CellKind::kCount:
      break;
  }

  ++result.gates_evaluated;
  if (next == prev) {
    const float clamped = std::min(density, kDensityClamp);
    if (clamped == 0.0f) return false;  // stable and glitch-free: inert
    net_epoch_[gate.out] = epoch_;
    changed_[gate.out] = 0;
    density_[gate.out] = clamped;
    result.switched_cap_ff += 0.5 * cell_cap_ff_[g] * clamped;
    return true;
  }
  value_[gate.out] = next;
  net_epoch_[gate.out] = epoch_;
  changed_[gate.out] = 1;
  if (is_known(prev) && is_known(next)) {
    ++result.toggles;
    if (density < 1.0f) density = 1.0f;  // the real toggle is an edge too
  }
  density_[gate.out] = std::min(density, kDensityClamp);
  result.switched_cap_ff += 0.5 * cell_cap_ff_[g] * density_[gate.out];

  // Sensitized arrival: earliest controlling input when the new value is
  // the controlled one, otherwise latest changed input. Stable inputs
  // contribute arrival 0 (they were settled before the step began).
  const auto in_arr = [&](std::size_t k) {
    return net_changed(ins[k]) ? arrival_[ins[k]] : 0.0;
  };
  double arr = 0.0;
  Logic ctrl = Logic::kX;  // controlling input value, if the kind has one
  bool ctrl_makes_out = false;
  switch (gate.kind) {
    case CellKind::kAnd2:
    case CellKind::kAnd3:
      ctrl = Logic::kZero;
      ctrl_makes_out = (next == Logic::kZero);
      break;
    case CellKind::kNand2:
      ctrl = Logic::kZero;
      ctrl_makes_out = (next == Logic::kOne);
      break;
    case CellKind::kOr2:
    case CellKind::kOr3:
      ctrl = Logic::kOne;
      ctrl_makes_out = (next == Logic::kOne);
      break;
    case CellKind::kNor2:
      ctrl = Logic::kOne;
      ctrl_makes_out = (next == Logic::kZero);
      break;
    default:
      break;
  }
  if (ctrl_makes_out) {
    // Earliest input holding the controlling value decides the output.
    double best = -1.0;
    for (std::size_t k = 0; k < ins.size(); ++k) {
      if (in_vals[k] == ctrl) {
        const double a = in_arr(k);
        if (best < 0.0 || a < best) best = a;
      }
    }
    arr = best < 0.0 ? 0.0 : best;
  } else if (gate.kind == CellKind::kMux2) {
    const Logic sel = in_vals[2];
    const std::size_t data_k = (sel == Logic::kOne) ? 1u : 0u;
    arr = in_arr(data_k);
    if (net_changed(ins[2])) arr = std::max(arr, in_arr(2));
  } else if (gate.kind == CellKind::kTbuf) {
    // Only reached when enabled (disabled TBUF holds => next == prev).
    arr = std::max(in_arr(0), in_arr(1));
  } else {
    // Non-controlled settle: latest changed input.
    for (std::size_t k = 0; k < ins.size(); ++k) {
      if (net_changed(ins[k])) arr = std::max(arr, in_arr(k));
    }
  }
  arrival_[gate.out] = arr + base_delay_ps_[g];
  result.settle_ps = std::max(result.settle_ps, arrival_[gate.out]);
  return true;
}

template <bool kOverlay, bool kTransient>
void TimingSim::run_dense(StepResult& result) {
  const GateId n = static_cast<GateId>(netlist_->num_gates());
  for (GateId g = 0; g < n; ++g) {
    evaluate_gate<kOverlay, kTransient>(g, result);
  }
}

template <bool kOverlay>
void TimingSim::run_sparse(StepResult& result) {
  const Netlist& nl = *netlist_;
  const Netlist::FanoutView fan = nl.fanout_view();
  // Pop queued gates lowest-id-first via the worklist bitmap, re-reading
  // each word after every pop: a consumer enqueued while draining always
  // has a larger id than the gate being processed (consumers are created
  // after their drivers), so it lands at the cursor or ahead of it. That
  // ascending-id schedule is both topologically valid and exactly the dense
  // kernel's floating-point accumulation order for switched_cap_ff — hence
  // bit-identical results. Bits are cleared as they are popped, leaving the
  // bitmap all-zero for the next step.
  for (std::size_t w = queued_min_word_;
       w <= queued_max_word_ && w < queued_words_.size(); ++w) {
    while (queued_words_[w] != 0) {
      const std::uint64_t bits = queued_words_[w];
      queued_words_[w] = bits & (bits - 1);  // clear lowest set bit
      const GateId g =
          static_cast<GateId>((w << 6) | std::countr_zero(bits));
      if (evaluate_gate<kOverlay, false>(g, result)) {
        const NetId out = nl.gate(g).out;
        for (std::uint32_t k = fan.begin[out]; k < fan.begin[out + 1]; ++k) {
          enqueue(fan.consumers[k]);
        }
      }
    }
  }
}

StepResult TimingSim::step(std::span<const Logic> input_values) {
  const Netlist& nl = *netlist_;
  if (input_values.size() != nl.num_inputs()) {
    throw std::invalid_argument("TimingSim::step: wrong input count");
  }
  StepResult result;
  result.gates_total = nl.num_gates();
  ++epoch_;
  queued_min_word_ = queued_words_.size();
  queued_max_word_ = 0;

  // A transient strike forces a value with no fanin edge, and the next step
  // must un-flip it the same way — both run dense.
  const bool transient_now = overlay_ != nullptr &&
                             overlay_->has_transients() &&
                             overlay_->transient_fires_on(step_index_);
  const bool transient_cleanup = overlay_ != nullptr &&
                                 overlay_->has_transients() &&
                                 overlay_->transient_fires_on(step_index_ - 1);
  const bool forced_swap = force_dense_;  // cleared by the dense sweep below
  const bool dense = mode_ == Mode::kDense || force_dense_ || transient_now ||
                     transient_cleanup;

  // Apply primary inputs (all input transitions land at t = 0). A changed
  // input seeds one transition of density; unchanged inputs are simply not
  // stamped with this epoch, which downstream reads as stable/zero.
  const Netlist::FanoutView fan =
      dense ? Netlist::FanoutView{} : nl.fanout_view();
  const auto input_nets = nl.input_nets();
  for (std::size_t i = 0; i < input_nets.size(); ++i) {
    const NetId net = input_nets[i];
    const Logic nv = input_values[i];
    if (nv == value_[net]) continue;
    value_[net] = nv;
    arrival_[net] = 0.0;
    net_epoch_[net] = epoch_;
    changed_[net] = 1;
    density_[net] = 1.0f;
    if (is_known(nv)) result.switched_cap_ff += kInputCapFf;
    if (!dense) {
      for (std::uint32_t k = fan.begin[net]; k < fan.begin[net + 1]; ++k) {
        enqueue(fan.consumers[k]);
      }
    }
  }

  if (dense) {
    if (overlay_ != nullptr) {
      if (transient_now) {
        run_dense<true, true>(result);
      } else {
        run_dense<true, false>(result);
      }
    } else {
      run_dense<false, false>(result);
    }
    force_dense_ = false;
  } else if (overlay_ != nullptr) {
    run_sparse<true>(result);
  } else {
    run_sparse<false>(result);
  }

  for (NetId out : nl.output_nets()) {
    if (net_changed(out)) {
      result.output_settle_ps = std::max(result.output_settle_ps,
                                         arrival_[out]);
    }
  }
  ++step_index_;
  if (obs::metrics_enabled()) {
    const SimMetrics& m = sim_metrics();
    (dense ? m.steps_dense : m.steps_sparse).add();
    m.gates_evaluated.add(result.gates_evaluated);
    if (mode_ != Mode::kDense && dense) {
      // Attribute the fallback: a pending delay-table swap wins over a
      // transient window when both apply this step.
      (forced_swap ? m.fallback_swap : m.fallback_transient).add();
    }
  }
  return result;
}

std::uint64_t TimingSim::output_bits() const {
  const auto outs = netlist_->output_nets();
  if (outs.size() > 64) {
    throw std::logic_error("TimingSim::output_bits: more than 64 outputs");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Logic v = value_[outs[i]];
    if (!is_known(v)) {
      throw std::logic_error("TimingSim::output_bits: output " +
                             netlist_->output_name(i) + " is unknown");
    }
    if (logic_to_bool(v)) bits |= (std::uint64_t{1} << i);
  }
  return bits;
}

}  // namespace agingsim
