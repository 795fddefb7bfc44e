#include "src/sim/sta.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/obs/trace.hpp"

namespace agingsim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

StaEngine::StaEngine(const Netlist& netlist, const TechLibrary& tech)
    : netlist_(&netlist), tech_(&tech) {
  const std::size_t num_gates = netlist.num_gates();
  const std::size_t num_nets = netlist.num_nets();
  const std::size_t num_pins = netlist.num_pins();

  // Validate up front so the sweeps below can index without checks. The
  // engine is reachable from lint rules running over deliberately corrupted
  // netlists; throwing (which the LintEngine converts into an error
  // diagnostic) is the contract, crashing is not.
  base_delay_ps_.resize(num_gates);
  std::vector<std::int32_t> level(num_gates, 0);
  int depth = 0;
  for (GateId g = 0; g < num_gates; ++g) {
    const Gate& gate = netlist.gate(g);
    if (static_cast<int>(gate.kind) >= kNumCellKinds) {
      throw std::invalid_argument("StaEngine: gate " + std::to_string(g) +
                                  " has a cell kind outside the library");
    }
    if (gate.in_begin > num_pins || gate.in_begin + gate.in_count > num_pins) {
      throw std::invalid_argument("StaEngine: gate " + std::to_string(g) +
                                  " has a pin window out of bounds");
    }
    if (gate.out >= num_nets) {
      throw std::invalid_argument("StaEngine: gate " + std::to_string(g) +
                                  " drives a nonexistent net");
    }
    std::int32_t lvl = 0;
    for (NetId in : netlist.gate_inputs(g)) {
      if (in >= num_nets || in >= gate.out) {
        throw std::invalid_argument(
            "StaEngine: gate " + std::to_string(g) +
            " reads a net that is not topologically earlier than its output");
      }
      const std::int32_t d = netlist.driver_of(in);
      if (d >= 0) lvl = std::max(lvl, level[static_cast<GateId>(d)] + 1);
    }
    level[g] = lvl;
    depth = std::max(depth, lvl + 1);
    base_delay_ps_[g] = tech.delay(gate.kind);
  }
  num_levels_ = num_gates == 0 ? 0 : depth;

  // Counting sort into level-major order: gates of level L are contiguous,
  // ascending id within the level (the schedule a level-synchronous parallel
  // traversal would hand to worker threads).
  level_begin_.assign(static_cast<std::size_t>(num_levels_) + 1, 0);
  for (GateId g = 0; g < num_gates; ++g) {
    ++level_begin_[static_cast<std::size_t>(level[g]) + 1];
  }
  for (std::size_t l = 1; l < level_begin_.size(); ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }
  level_order_.resize(num_gates);
  std::vector<std::uint32_t> cursor(level_begin_.begin(),
                                    level_begin_.end() - 1);
  for (GateId g = 0; g < num_gates; ++g) {
    level_order_[cursor[static_cast<std::size_t>(level[g])]++] = g;
  }
}

std::span<const GateId> StaEngine::level_gates(int lvl) const {
  if (lvl < 0 || lvl >= num_levels_) return {};
  return {level_order_.data() + level_begin_[static_cast<std::size_t>(lvl)],
          level_begin_[static_cast<std::size_t>(lvl) + 1] -
              level_begin_[static_cast<std::size_t>(lvl)]};
}

void StaEngine::check_corner(const StaCorner& corner) const {
  if (!corner.gate_delay_scale.empty() &&
      corner.gate_delay_scale.size() != netlist_->num_gates()) {
    throw std::invalid_argument("StaEngine: corner '" + corner.name +
                                "' gate_delay_scale must have one entry per "
                                "gate");
  }
}

CornerTiming StaEngine::forward(const StaCorner& corner) const {
  const Netlist& nl = *netlist_;
  CornerTiming t;
  t.name = corner.name;
  // Max plane starts at 0 for every net (primary inputs launch at t = 0 and
  // undriven nets stay there). The min plane starts at 0 on primary inputs
  // and is assigned on every gate-driven net; gates with no fanin (tie
  // cells) seed their own delay in both planes.
  t.max_arrival_ps.assign(nl.num_nets(), 0.0);
  t.min_arrival_ps.assign(nl.num_nets(), 0.0);
  const bool scaled = !corner.gate_delay_scale.empty();
  for (const GateId g : level_order_) {
    const Gate& gate = nl.gate(g);
    double in_min = kInf;
    double in_max = 0.0;
    for (NetId in : nl.gate_inputs(g)) {
      in_min = std::min(in_min, t.min_arrival_ps[in]);
      in_max = std::max(in_max, t.max_arrival_ps[in]);
    }
    if (gate.in_count == 0) in_min = 0.0;
    double d = base_delay_ps_[g];
    if (scaled) d *= corner.gate_delay_scale[g];
    t.min_arrival_ps[gate.out] = in_min + d;
    t.max_arrival_ps[gate.out] = in_max + d;
  }
  t.critical_path_ps = 0.0;
  t.earliest_output_ps = kInf;
  for (NetId out : nl.output_nets()) {
    t.critical_path_ps = std::max(t.critical_path_ps, t.max_arrival_ps[out]);
    t.earliest_output_ps =
        std::min(t.earliest_output_ps, t.min_arrival_ps[out]);
  }
  return t;
}

std::vector<CornerTiming> StaEngine::run(
    std::span<const StaCorner> corners) const {
  obs::TraceSpan span("sta.run", corners.size());
  for (const StaCorner& c : corners) check_corner(c);
  // The corner loop is outermost: each walk of the schedule touches one
  // corner's planes, so its working set stays contiguous.
  std::vector<CornerTiming> r;
  r.reserve(corners.size());
  for (const StaCorner& c : corners) r.push_back(forward(c));
  return r;
}

CornerTiming StaEngine::run_corner(const StaCorner& corner) const {
  obs::TraceSpan span("sta.run_corner");
  check_corner(corner);
  return forward(corner);
}

StaEngine::Downstream StaEngine::downstream(
    const StaCorner& corner, std::span<const std::uint8_t> endpoint_net) const {
  check_corner(corner);
  const Netlist& nl = *netlist_;
  if (endpoint_net.size() != nl.num_nets()) {
    throw std::invalid_argument(
        "StaEngine::downstream: endpoint mask must have one entry per net");
  }
  Downstream d;
  d.min_ps.assign(nl.num_nets(), kInf);
  d.max_ps.assign(nl.num_nets(), -kInf);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    if (endpoint_net[n] != 0) {
      d.min_ps[n] = 0.0;
      d.max_ps[n] = 0.0;
    }
  }
  const bool scaled = !corner.gate_delay_scale.empty();
  // Reverse level-major order: every consumer of a net has a strictly
  // larger gate id and level, so its downstream bounds are final before the
  // net's driver is visited.
  for (std::size_t i = level_order_.size(); i-- > 0;) {
    const GateId g = level_order_[i];
    const Gate& gate = nl.gate(g);
    const double dn_min = d.min_ps[gate.out];
    const double dn_max = d.max_ps[gate.out];
    if (dn_min == kInf && dn_max == -kInf) continue;  // no endpoint below
    double delay = base_delay_ps_[g];
    if (scaled) delay *= corner.gate_delay_scale[g];
    for (NetId in : nl.gate_inputs(g)) {
      d.min_ps[in] = std::min(d.min_ps[in], delay + dn_min);
      d.max_ps[in] = std::max(d.max_ps[in], delay + dn_max);
    }
  }
  return d;
}

}  // namespace agingsim
