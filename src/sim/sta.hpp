#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"

namespace agingsim {

/// One analysis corner: a label plus an optional per-gate delay multiplier
/// overlay (the aging overlay produced by src/aging/; empty means every gate
/// runs at its nominal library delay). Corners compose fresh/aged silicon
/// with any per-gate derating in one object, so one `StaEngine::run` call
/// covers "fresh", "year-3.5", "year-7", ... in one sweep per corner.
struct StaCorner {
  std::string name;
  /// One multiplier per gate, or empty for 1.0 everywhere.
  std::vector<double> gate_delay_scale;
};

/// Min/max arrivals of every net at one corner.
///
/// `max_arrival_ps` is the latest settle time (setup side): every gate's
/// output is max(input arrivals) + delay, with primary inputs and undriven
/// nets at t = 0. Tri-state buffers count every pin, so the max plane is the
/// "always enabled" worst case — sound for late settles only.
///
/// `min_arrival_ps` is the *earliest time the net can change* after the
/// launch edge (hold side): min over all input arcs + delay. Tri-state
/// buffers deliberately include the enable arc in the min plane — a bypass
/// select toggling can propagate new data through a kTbuf as soon as the
/// enable arrives, even when the data pin is still settling. A min analysis
/// built on the "always enabled" reading would drop that arc, because a
/// statically-enabled buffer's enable never transitions; that is unsound and
/// hides exactly the short paths the Razor shadow window is vulnerable to.
struct CornerTiming {
  std::string name;
  std::vector<double> min_arrival_ps;
  std::vector<double> max_arrival_ps;
  /// Max over the primary outputs of `max_arrival_ps` (setup-critical path).
  double critical_path_ps = 0.0;
  /// Min over the primary outputs of `min_arrival_ps` (the shortest path a
  /// hold/shadow-window constraint has to live with); +inf with no outputs.
  double earliest_output_ps = 0.0;
};

/// Min/max static timing engine: the one timing entry point. Setup and
/// hold are two planes of the same pass, not two analyses.
///
/// Construction validates the netlist (cell kinds in the library, pin
/// windows in bounds, topological net order) and builds a flat per-gate
/// nominal-delay table. A `run` then sweeps the gates once per corner in
/// ascending id order — the topological order the simulator kernels rely
/// on — filling the corner's min and max arrival planes (separate flat
/// arrays) in the same gate loop. Min, max and + are exact in any
/// topological order, and corners are independent, so a corner's planes
/// are bit-identical whether it runs alone or among others.
///
/// Throws std::invalid_argument from the constructor when the netlist is
/// structurally broken; lint rules rely on that (lint::run converts a
/// throwing rule into an error diagnostic instead of crashing).
class StaEngine {
 public:
  StaEngine(const Netlist& netlist, const TechLibrary& tech);

  /// Min/max arrivals for every corner, in call order. Each corner's
  /// `gate_delay_scale` must be empty or sized one-per-gate (throws
  /// std::invalid_argument otherwise).
  std::vector<CornerTiming> run(std::span<const StaCorner> corners) const;

  /// Single-corner convenience.
  CornerTiming run_corner(const StaCorner& corner) const;

  /// Downstream path-delay bounds from every net to a set of endpoint nets:
  /// `min_ps[n]` / `max_ps[n]` are the shortest / longest additional delay
  /// from a transition on net `n` to any endpoint (0 when `n` itself is an
  /// endpoint, +inf / -inf when no endpoint is reachable). Combined with
  /// `run`'s forward arrivals this gives per-edge hold and setup slacks —
  /// what the hold-repair pass uses to prove a delay buffer is safe to
  /// insert. `endpoint_net` holds one flag per net.
  struct Downstream {
    std::vector<double> min_ps;
    std::vector<double> max_ps;
  };
  Downstream downstream(const StaCorner& corner,
                        std::span<const std::uint8_t> endpoint_net) const;

 private:
  void check_corner(const StaCorner& corner) const;
  CornerTiming forward(const StaCorner& corner) const;

  const Netlist* netlist_;
  std::vector<double> base_delay_ps_;  // per gate, nominal library delay
};

}  // namespace agingsim
