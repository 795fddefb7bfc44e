#include "src/sim/corner_sim.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "src/netlist/cell.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/word_eval.hpp"

namespace agingsim {
namespace {

constexpr int kLanes = kCornerLanes;
// Patterns per narrowing of a word's active set; 8 fits a uint8_t mask.
constexpr int kBlock = 8;

// Accumulated per word, never per gate (the SimMetrics discipline): steps
// counts patterns, lanes counts pattern-lanes, so lane utilization is
// lanes / (steps * kCornerLanes).
struct CornerMetrics {
  const obs::Counter& steps = obs::counter("sim.corner.steps");
  const obs::Counter& lanes = obs::counter("sim.corner.lanes");
};

const CornerMetrics& corner_metrics() {
  static const CornerMetrics m;
  return m;
}

// The arrivals of a stable net or a primary input.
alignas(64) constexpr std::array<double, kLanes> kZeroLanes{};

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
  for (GateId g = 0; g < gates; ++g) {
    cell_delay_ps_[g] = tech.delay(netlist.gate(g).kind);
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
  // gate never writes the slot it is reading. A gate fed only by primary
  // inputs needs none either: every arrival rule folds its inputs' 0.0
  // to 0.0, so it settles at 0.0 + delay, its delay row, in every lane.
  constexpr GateId kUnread = ~GateId{0};
  const GateId end_of_step = static_cast<GateId>(gates);
  std::vector<GateId> last_use(nets, kUnread);
  for (GateId g = 0; g < gates; ++g) {
    for (const NetId in : netlist.gate_inputs(g)) last_use[in] = g;
  }
  for (const NetId out : netlist.output_nets()) last_use[out] = end_of_step;
  first_slot_ = static_cast<std::int64_t>(gates) * kLanes;
  row_.assign(nets + 1, -1);
  std::int64_t slots = 0;
  std::vector<std::int64_t> free_slots;
  for (GateId g = 0; g < gates; ++g) {
    const NetId out = netlist.gate(g).out;
    const auto ins = netlist.gate_inputs(g);
    const bool pi_fed = std::all_of(ins.begin(), ins.end(), [&](NetId in) {
      return netlist.driver_of(in) < 0;
    });
    if (last_use[out] != kUnread) {
      if (pi_fed) {
        row_[out] = std::int64_t(g) * kLanes;
      } else if (free_slots.empty()) {
        row_[out] = first_slot_ + slots++ * kLanes;
      } else {
        row_[out] = free_slots.back();
        free_slots.pop_back();
      }
    }
    for (const NetId in : ins) {
      if (last_use[in] == g && row_[in] >= first_slot_) {
        free_slots.push_back(row_[in]);
        last_use[in] = end_of_step;  // released once, however many pins
      }
    }
  }
  rows_.assign(std::size_t(first_slot_ + slots * kLanes), 0.0);
  for (GateId g = 0; g < gates; ++g) {
    std::fill_n(rows_.begin() + std::ptrdiff_t(g) * kLanes, kLanes,
                cell_delay_ps_[g]);
  }
  planes_.assign(nets + 1, {0, ~std::uint64_t{0}});  // X until driven
  value_.assign(nets + 1, Logic::kX);
  changed_.assign(nets + 1, 0);
  input_changed_.resize(netlist.num_inputs());
  active_.resize(gates);
  active_changed_.resize(gates);
  block_.resize(gates);
  block_changed_.resize(gates);
  changed_gates_.resize(gates);
  settle_.resize(std::size_t(kBatchLanes) * kLanes);
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
    rows_[g * kLanes + static_cast<std::size_t>(lane)] = d;
  }
}

void CornerTimingSim::power_up(int lanes) {
  if (lanes < 1 || lanes > kLanes) {
    throw std::invalid_argument(
        "CornerTimingSim::power_up: lanes must be in [1, 32]");
  }
  lanes_ = lanes;
  patterns_ = 0;
  std::fill(value_.begin(), value_.end(), Logic::kX);
}

const double* CornerTimingSim::arrival_lanes(NetId net) const noexcept {
  const std::int64_t row = row_[net];
  if (row < 0 || changed_[net] == 0) return kZeroLanes.data();
  return rows_.data() + row;
}

std::span<const double> CornerTimingSim::step_word(
    std::span<const std::uint64_t> input_bits, int patterns) {
  const Netlist& nl = *netlist_;
  if (input_bits.size() != nl.num_inputs()) {
    throw std::invalid_argument(
        "CornerTimingSim::step_word: wrong input count");
  }
  if (patterns < 1 || patterns > kBatchLanes) {
    throw std::invalid_argument(
        "CornerTimingSim::step_word: patterns must be in [1, 64]");
  }
  const std::uint64_t mask = patterns == kBatchLanes
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << patterns) - 1;

  // Values of every pattern: one sweep in ascending gate id (a topological
  // order) from the values the last word left, the dense kernel's sweep
  // run 64 patterns wide. value_ still holds that state here.
  const auto input_nets = nl.input_nets();
  for (std::size_t i = 0; i < input_nets.size(); ++i) {
    const NetId net = input_nets[i];
    const std::uint64_t bits = input_bits[i] & mask;
    planes_[net] = {bits, 0};
    input_changed_[i] = detail::lane_edges(bits, 0, value_[net], mask).changed;
  }
  // Values do not depend on delays, so the gates that changed on some
  // pattern are only listed here, branch-free, and timed below.
  std::size_t num_active = 0;
  const GateId gates = static_cast<GateId>(sweep_.size());
  for (GateId g = 0; g < gates; ++g) {
    const SweepGate& sg = sweep_[g];
    const std::uint64_t ip0[3] = {planes_[sg.in[0]].p0, planes_[sg.in[1]].p0,
                                  planes_[sg.in[2]].p0};
    const std::uint64_t ip1[3] = {planes_[sg.in[0]].p1, planes_[sg.in[1]].p1,
                                  planes_[sg.in[2]].p1};
    const Logic carried = value_[sg.out];
    const detail::WordPlanes w =
        detail::eval_word(sg.kind, ip0, ip1, carried, mask);
    const detail::NetLanes out{w.p0 & mask, w.p1 & mask};
    planes_[sg.out] = out;
    const std::uint64_t changed =
        detail::lane_edges(out.p0, out.p1, carried, mask).changed;
    active_[num_active] = g;
    active_changed_[num_active] = changed;
    num_active += changed != 0;
  }

  std::size_t num_block = 0;
  for (int p = 0; p < patterns; ++p) {
    // A changed input arrives at t = 0 in every lane.
    for (std::size_t i = 0; i < input_nets.size(); ++i) {
      value_[input_nets[i]] =
          logic_from_bool(((input_bits[i] >> p) & 1u) != 0);
      changed_[input_nets[i]] =
          static_cast<std::uint8_t>((input_changed_[i] >> p) & 1u);
    }
    // The word's active set narrowed, once per block of patterns, to the
    // gates that change in the block, and that list to this pattern's.
    // Both stay in ascending id.
    const int in_block = p % kBlock;
    if (in_block == 0) {
      num_block = 0;
      for (std::size_t a = 0; a < num_active; ++a) {
        const auto bits =
            static_cast<std::uint8_t>(active_changed_[a] >> p);
        block_[num_block] = active_[a];
        block_changed_[num_block] = bits;
        num_block += bits != 0;
      }
    }
    std::size_t num_changed = 0;
    for (std::size_t b = 0; b < num_block; ++b) {
      changed_gates_[num_changed] = block_[b];
      num_changed += (block_changed_[b] >> in_block) & 1u;
    }

    // Arrivals of the changed gates, still in ascending id, so every fanin
    // arrival is final when a gate reads it: TimingSim::evaluate_gate's
    // sensitized arrival, folded over the inputs that can move it.
    for (std::size_t i = 0; i < num_changed; ++i) {
      const GateId g = changed_gates_[i];
      const SweepGate& sg = sweep_[g];
      value_[sg.out] =
          detail::lane_logic(planes_[sg.out].p0, planes_[sg.out].p1, p);
      changed_[sg.out] = 1;
      // Nothing reads this arrival, or it is the gate's delay row.
      const std::int64_t row = row_[sg.out];
      if (row < first_slot_) continue;
      double* out = rows_.data() + row;
      const double* delay = rows_.data() + std::size_t(g) * kLanes;
      const Controlled ctrl = controlled(sg.kind);
      std::array<const double*, 3> in;
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
          in[n++] = a;
        }
        fold_lanes<true>(out, in, n, delay);
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
        if (k != skip && a != kZeroLanes.data()) in[n++] = a;
      }
      fold_lanes<false>(out, in, n, delay);
    }

    double* settle = settle_.data() + std::size_t(p) * kLanes;
    std::fill_n(settle, kLanes, 0.0);
    for (const NetId out : nl.output_nets()) {
      if (changed_[out] == 0) continue;
      const double* a = arrival_lanes(out);
      for (int l = 0; l < kLanes; ++l) {
        settle[l] = fold<false>(settle[l], a[l]);
      }
    }
    for (std::size_t i = 0; i < num_changed; ++i) {
      changed_[sweep_[changed_gates_[i]].out] = 0;
    }
  }
  patterns_ = patterns;
  if (obs::metrics_enabled()) {
    const CornerMetrics& m = corner_metrics();
    m.steps.add(static_cast<std::uint64_t>(patterns));
    m.lanes.add(static_cast<std::uint64_t>(patterns) *
                static_cast<std::uint64_t>(lanes_));
  }
  return {settle_.data(), std::size_t(patterns) * kLanes};
}

Logic CornerTimingSim::lane_value(NetId net, int pattern) const {
  if (pattern < 0 || pattern >= patterns_) {
    throw std::out_of_range(
        "CornerTimingSim::lane_value: pattern out of range");
  }
  return detail::lane_logic(planes_[net].p0, planes_[net].p1, pattern);
}

std::uint64_t CornerTimingSim::output_bits(int pattern) const {
  const auto outs = netlist_->output_nets();
  if (outs.size() > 64) {
    throw std::logic_error(
        "CornerTimingSim::output_bits: more than 64 outputs");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Logic v = lane_value(outs[i], pattern);
    if (!is_known(v)) {
      throw std::logic_error("CornerTimingSim::output_bits: output " +
                             netlist_->output_name(i) + " is unknown");
    }
    if (logic_to_bool(v)) bits |= (std::uint64_t{1} << i);
  }
  return bits;
}

}  // namespace agingsim
