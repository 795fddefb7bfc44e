#include "src/sim/corner_sim.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "src/netlist/cell.hpp"
#include "src/obs/metrics.hpp"

namespace agingsim {
namespace {

constexpr int kLanes = kCornerLanes;

// Accumulated per step, never per gate (the SimMetrics discipline).
// Lane utilization is lanes / (steps * kCornerLanes).
struct CornerMetrics {
  const obs::Counter& steps = obs::counter("sim.corner.steps");
  const obs::Counter& lanes = obs::counter("sim.corner.lanes");
};

const CornerMetrics& corner_metrics() {
  static const CornerMetrics m;
  return m;
}

constexpr std::array<double, kLanes> filled(double v) {
  std::array<double, kLanes> a{};
  for (double& x : a) x = v;
  return a;
}

// The arrivals of a stable net or a primary input.
alignas(64) constexpr std::array<double, kLanes> kZeroLanes = filled(0.0);

/// eval_cell tabulated: row kind * 256, column in0 | in1 << 2 | in2 << 4 |
/// prev << 6 over the 2-bit Logic codes (inputs past the kind's arity are
/// ignored). The value sweep looks gates up here instead of branching
/// through the cell switch for every gate of every step.
const std::vector<Logic>& eval_table() {
  static const std::vector<Logic> table = [] {
    std::vector<Logic> t(std::size_t(kNumCellKinds) * 256);
    for (int kind = 0; kind < kNumCellKinds; ++kind) {
      const auto k = static_cast<CellKind>(kind);
      const auto arity = static_cast<std::size_t>(cell_traits(k).num_inputs);
      for (unsigned idx = 0; idx < 256; ++idx) {
        const std::array<Logic, 3> ins = {static_cast<Logic>(idx & 3),
                                          static_cast<Logic>((idx >> 2) & 3),
                                          static_cast<Logic>((idx >> 4) & 3)};
        t[std::size_t(kind) * 256 + idx] =
            eval_cell(k, {ins.data(), arity}, static_cast<Logic>(idx >> 6));
      }
    }
    return t;
  }();
  return table;
}

inline unsigned code(Logic v) { return static_cast<unsigned>(v); }

/// A kind whose output settles at its earliest controlling input when it
/// takes `out` (TimingSim::evaluate_gate's ctrl_makes_out).
struct Controlled {
  bool has = false;
  Logic in = Logic::kX;
  Logic out = Logic::kX;
};

constexpr Controlled controlled(CellKind kind) {
  switch (kind) {
    case CellKind::kAnd2:
    case CellKind::kAnd3:
      return {true, Logic::kZero, Logic::kZero};
    case CellKind::kNand2:
      return {true, Logic::kZero, Logic::kOne};
    case CellKind::kOr2:
    case CellKind::kOr3:
      return {true, Logic::kOne, Logic::kOne};
    case CellKind::kNor2:
      return {true, Logic::kOne, Logic::kZero};
    default:
      return {};
  }
}

// The scalar kernel's updates: the first-wins `a < best` of its minimum
// and std::max(acc, a), which is `acc < a ? a : acc`.
template <bool kMin>
inline double fold(double acc, double a) {
  if constexpr (kMin) {
    return a < acc ? a : acc;
  } else {
    return acc < a ? a : acc;
  }
}

/// out = fold(p[0], ..., p[n-1]) + delay in every lane, n in [0, 3]; an
/// empty fold is 0.0 (the arrival of a gate none of whose inputs moved).
/// One fixed-trip loop per operand count.
template <bool kMin>
void fold_lanes(double* out, const std::array<const double*, 3>& p, int n,
                const double* delay) {
  switch (n) {
    case 0:
      for (int l = 0; l < kLanes; ++l) out[l] = 0.0 + delay[l];
      break;
    case 1:
      for (int l = 0; l < kLanes; ++l) out[l] = p[0][l] + delay[l];
      break;
    case 2:
      for (int l = 0; l < kLanes; ++l) {
        out[l] = fold<kMin>(p[0][l], p[1][l]) + delay[l];
      }
      break;
    default:
      for (int l = 0; l < kLanes; ++l) {
        out[l] = fold<kMin>(fold<kMin>(p[0][l], p[1][l]), p[2][l]) + delay[l];
      }
      break;
  }
}

}  // namespace

CornerTimingSim::CornerTimingSim(const Netlist& netlist,
                                 const TechLibrary& tech)
    : netlist_(&netlist) {
  const std::size_t gates = netlist.num_gates();
  const std::size_t nets = netlist.num_nets();
  cell_delay_ps_.resize(gates);
  delay_ps_.resize(gates * kLanes);
  for (GateId g = 0; g < gates; ++g) {
    cell_delay_ps_[g] = tech.delay(netlist.gate(g).kind);
    std::fill_n(delay_ps_.begin() + std::ptrdiff_t(g) * kLanes, kLanes,
                cell_delay_ps_[g]);
  }

  // Value-sweep records. Inputs past a kind's arity read net `nets`, a pad
  // that stays X: never a controlling value, never changed, no slot.
  const NetId pad = static_cast<NetId>(nets);
  sweep_.resize(gates);
  for (GateId g = 0; g < gates; ++g) {
    const auto ins = netlist.gate_inputs(g);
    SweepGate& sg = sweep_[g];
    for (std::size_t k = 0; k < 3; ++k) {
      sg.in[k] = k < ins.size() ? ins[k] : pad;
    }
    sg.out = netlist.gate(g).out;
    sg.kind = netlist.gate(g).kind;
  }

  // Live ranges in the ascending-id sweep: a gate-driven net is born at its
  // driver and dies after its last consumer; primary outputs live to the
  // end of the step, and a net nobody reads gets no slot at all. An output
  // takes its slot before the gate's dying inputs release theirs, so a
  // gate never writes the slot it is reading.
  constexpr GateId kUnread = ~GateId{0};
  const GateId end_of_step = static_cast<GateId>(gates);
  std::vector<GateId> last_use(nets, kUnread);
  for (GateId g = 0; g < gates; ++g) {
    for (const NetId in : netlist.gate_inputs(g)) last_use[in] = g;
  }
  for (const NetId out : netlist.output_nets()) last_use[out] = end_of_step;
  slot_.assign(nets + 1, -1);
  std::int32_t slots = 0;
  std::vector<std::int32_t> free_slots;
  for (GateId g = 0; g < gates; ++g) {
    const NetId out = netlist.gate(g).out;
    if (last_use[out] != kUnread) {
      if (free_slots.empty()) {
        slot_[out] = slots++;
      } else {
        slot_[out] = free_slots.back();
        free_slots.pop_back();
      }
    }
    for (const NetId in : netlist.gate_inputs(g)) {
      if (last_use[in] == g && slot_[in] >= 0) {
        free_slots.push_back(slot_[in]);
        last_use[in] = end_of_step;  // released once, however many pins
      }
    }
  }
  arrival_.assign(std::size_t(slots) * kLanes, 0.0);
  value_.assign(nets + 1, Logic::kX);
  changed_.assign(nets + 1, 0);
  changed_gates_.resize(gates);
}

void CornerTimingSim::set_lane_scales(int lane, std::span<const double> scale,
                                      const FaultOverlay* faults) {
  if (lane < 0 || lane >= kLanes) {
    throw std::invalid_argument("CornerTimingSim::set_lane_scales: bad lane");
  }
  const std::size_t gates = netlist_->num_gates();
  if (!scale.empty() && scale.size() != gates) {
    throw std::invalid_argument(
        "CornerTimingSim::set_lane_scales: need one multiplier per gate");
  }
  if (faults != nullptr) {
    if (faults->num_gates() != gates) {
      throw std::invalid_argument(
          "CornerTimingSim::set_lane_scales: overlay sized for a different "
          "netlist");
    }
    for (const FaultSite& site : faults->faults()) {
      if (site.kind != FaultKind::kDelayOutlier) {
        throw std::invalid_argument(
            "CornerTimingSim::set_lane_scales: only delay outliers leave "
            "the shared values intact");
      }
    }
  }
  for (std::size_t g = 0; g < gates; ++g) {
    // TimingSim::rebuild_delays' expression, factor by factor.
    double d = cell_delay_ps_[g];
    if (!scale.empty()) d *= scale[g];
    if (faults != nullptr) d *= faults->delay_factor(static_cast<GateId>(g));
    delay_ps_[g * kLanes + static_cast<std::size_t>(lane)] = d;
  }
}

void CornerTimingSim::power_up(int lanes) {
  if (lanes < 1 || lanes > kLanes) {
    throw std::invalid_argument(
        "CornerTimingSim::power_up: lanes must be in [1, 32]");
  }
  lanes_ = lanes;
  std::fill(value_.begin(), value_.end(), Logic::kX);
}

const double* CornerTimingSim::arrival_lanes(NetId net) const noexcept {
  const std::int32_t s = slot_[net];
  if (s < 0 || changed_[net] == 0) return kZeroLanes.data();
  return arrival_.data() + std::size_t(s) * kLanes;
}

std::span<const double> CornerTimingSim::step(
    std::span<const Logic> input_values) {
  const Netlist& nl = *netlist_;
  if (input_values.size() != nl.num_inputs()) {
    throw std::invalid_argument("CornerTimingSim::step: wrong input count");
  }
  const auto input_nets = nl.input_nets();
  for (std::size_t i = 0; i < input_nets.size(); ++i) {
    const NetId net = input_nets[i];
    // A changed input arrives at t = 0 in every lane.
    changed_[net] = input_values[i] != value_[net];
    value_[net] = input_values[i];
  }

  // Values: every gate in ascending id (a topological order) from the
  // all-X power-up, the dense kernel's sweep. Values do not depend on
  // delays, so the gates that changed are only listed here, branch-free,
  // and timed below.
  const std::vector<Logic>& table = eval_table();
  std::size_t num_changed = 0;
  const GateId gates = static_cast<GateId>(sweep_.size());
  for (GateId g = 0; g < gates; ++g) {
    const SweepGate& sg = sweep_[g];
    const unsigned prev = code(value_[sg.out]);
    const unsigned column = code(value_[sg.in[0]]) |
                            code(value_[sg.in[1]]) << 2 |
                            code(value_[sg.in[2]]) << 4 | prev << 6;
    const Logic next = table[static_cast<unsigned>(sg.kind) * 256 + column];
    const bool changed = code(next) != prev;
    value_[sg.out] = next;
    changed_[sg.out] = changed;
    changed_gates_[num_changed] = g;
    num_changed += changed;
  }

  // Arrivals of the changed gates, still in ascending id, so every fanin
  // arrival is final when a gate reads it: TimingSim::evaluate_gate's
  // sensitized arrival, folded over the inputs that can move it.
  for (std::size_t i = 0; i < num_changed; ++i) {
    const GateId g = changed_gates_[i];
    const SweepGate& sg = sweep_[g];
    const std::int32_t slot = slot_[sg.out];
    if (slot < 0) continue;  // nothing reads this arrival
    double* out = arrival_.data() + std::size_t(slot) * kLanes;
    const double* delay = delay_ps_.data() + std::size_t(g) * kLanes;
    const Controlled ctrl = controlled(sg.kind);
    std::array<const double*, 3> p;
    int n = 0;
    if (ctrl.has && value_[sg.out] == ctrl.out) {
      // First-wins minimum over the inputs holding the controlling value
      // (the scalar -1 sentinel only ever yields the first of them:
      // arrivals are never negative). One that arrived at 0.0 decides it.
      for (std::size_t k = 0; k < 3; ++k) {
        if (value_[sg.in[k]] != ctrl.in) continue;
        const double* a = arrival_lanes(sg.in[k]);
        if (a == kZeroLanes.data()) {
          n = 0;
          break;
        }
        p[n++] = a;
      }
      fold_lanes<true>(out, p, n, delay);
      continue;
    }
    // Latest changed input, from 0.0: an unchanged input (0.0) leaves the
    // maximum as it is. A mux skips its unselected data input and counts
    // its select only when it changed; a tbuf that changed was enabled
    // and takes both of its inputs.
    const int skip = sg.kind != CellKind::kMux2          ? -1
                     : value_[sg.in[2]] == Logic::kOne ? 0
                                                       : 1;
    for (int k = 0; k < 3; ++k) {
      const double* a = arrival_lanes(sg.in[k]);
      if (k != skip && a != kZeroLanes.data()) p[n++] = a;
    }
    fold_lanes<false>(out, p, n, delay);
  }

  std::fill_n(settle_, kLanes, 0.0);
  for (const NetId out : nl.output_nets()) {
    if (changed_[out] == 0) continue;
    const double* a = arrival_lanes(out);
    for (int l = 0; l < kLanes; ++l) {
      settle_[l] = fold<false>(settle_[l], a[l]);
    }
  }
  if (obs::metrics_enabled()) {
    const CornerMetrics& m = corner_metrics();
    m.steps.add();
    m.lanes.add(static_cast<std::uint64_t>(lanes_));
  }
  return {settle_, static_cast<std::size_t>(kLanes)};
}

std::uint64_t CornerTimingSim::output_bits() const {
  const auto outs = netlist_->output_nets();
  if (outs.size() > 64) {
    throw std::logic_error(
        "CornerTimingSim::output_bits: more than 64 outputs");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Logic v = value_[outs[i]];
    if (!is_known(v)) {
      throw std::logic_error("CornerTimingSim::output_bits: output " +
                             netlist_->output_name(i) + " is unknown");
    }
    if (logic_to_bool(v)) bits |= (std::uint64_t{1} << i);
  }
  return bits;
}

}  // namespace agingsim
