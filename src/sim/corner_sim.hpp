#pragma once

// Corner-parallel timing kernel (docs/PERF.md "MC corner-parallel
// scoring" and "Fault-campaign trial lanes").
//
// The batch kernel packs *patterns* into lanes; this one packs *delay
// tables*. Process variation, aging and delay-outlier faults change only
// gate delays, so every corner sees the same values, the same switching and the same products;
// only arrivals differ. One CornerTimingSim therefore settles one operand
// pattern per step with a single scalar value sweep (eval_cell in ascending
// gate id, from the all-X power-up state, exactly the dense kernel's
// sweep), then computes the sensitized arrival of each gate whose value
// changed once per lane, each lane being one delay table.
//
// EXACTNESS: a lane's arrival recurrence is TimingSim::evaluate_gate's,
// statement for statement — first-wins minimum over controlling inputs,
// maximum from 0.0 over changed inputs otherwise, the mux select override,
// the tbuf maximum, then `+ delay` with delay = tech.delay(kind) * scale[g]
// * delay_factor[g] (TimingSim::rebuild_delays). Every step is a select,
// min/max or one add, so each lane's output settle is exactly `==` a scalar
// TimingSim built with that lane's scales and overlay
// (tests/corner_sim_test.cpp).
//
// Arrivals live in live-range slots, not per net: ascending gate id is the
// evaluation order, so a net's arrival is needed only from its driver to
// its last consumer (primary outputs: to the end of the step). The 16-bit
// multipliers keep ~260 of their 1 400-2 400 nets live at once.

#include <cstdint>
#include <span>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/netlist/cell.hpp"
#include "src/netlist/logic.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"

namespace agingsim {

/// Delay tables per sweep. Every per-lane loop runs this fixed trip count,
/// whatever the number of lanes in use.
inline constexpr int kCornerLanes = 32;

class CornerTimingSim {
 public:
  /// Every lane starts with the fresh delay table (all scales 1.0) and
  /// every net at power-up X.
  CornerTimingSim(const Netlist& netlist, const TechLibrary& tech);

  /// Installs lane `lane`'s delay table: tech.delay(kind) times `scale`
  /// (one multiplier per gate; empty = a fresh circuit) times `faults`'
  /// delay_factor when given, multiplied in TimingSim::rebuild_delays'
  /// order. Delay outliers change no logic value, so they are the only
  /// faults a lane can carry. Throws std::invalid_argument on a bad lane,
  /// a table or overlay sized for another netlist, or an overlay holding a
  /// stuck-at or transient site.
  void set_lane_scales(int lane, std::span<const double> scale,
                       const FaultOverlay* faults = nullptr);

  /// Returns every net to the all-X power-up state; the following steps
  /// settle lanes [0, lanes).
  void power_up(int lanes);

  /// Applies one input pattern (one value per primary input) to every
  /// lane and settles the netlist. Returns each lane's output settle time
  /// (ps): the latest arrival among primary outputs that changed, 0 if
  /// none did — StepResult::output_settle_ps of the scalar kernel. The span
  /// has kCornerLanes entries (lanes past power_up's count are
  /// unspecified) and is valid until the next call.
  std::span<const double> step(std::span<const Logic> input_values);

  /// Net values are shared by every lane.
  Logic value(NetId net) const noexcept { return value_[net]; }

  /// Packs the primary outputs LSB-first. Throws std::logic_error on an
  /// X/Z output or more than 64 outputs, like TimingSim::output_bits.
  std::uint64_t output_bits() const;

  /// Arrival slots the live-range allocation needs (the peak number of
  /// simultaneously live gate-driven nets).
  std::size_t num_slots() const noexcept {
    return arrival_.size() / kCornerLanes;
  }

 private:
  /// Lane array holding `net`'s arrivals this step: its slot when it
  /// changed and a gate drives it, otherwise all zeros (a stable net, or a
  /// primary input, arrives at t = 0).
  const double* arrival_lanes(NetId net) const noexcept;

  /// One gate as both sweeps read it: inputs padded to three with a net
  /// that stays X, the output net and the kind.
  struct SweepGate {
    NetId in[3];
    NetId out;
    CellKind kind;
  };

  const Netlist* netlist_;
  std::vector<SweepGate> sweep_;       // per gate
  std::vector<double> cell_delay_ps_;  // per gate: tech.delay(kind)
  std::vector<double> delay_ps_;       // gate x kCornerLanes
  std::vector<std::int32_t> slot_;     // per net + pad, -1 = never read
  std::vector<double> arrival_;        // slot x kCornerLanes
  std::vector<Logic> value_;           // per net, plus the X pad
  std::vector<std::uint8_t> changed_;  // per net + pad: changed this step
  std::vector<GateId> changed_gates_;  // this step's, ascending
  int lanes_ = kCornerLanes;
  alignas(64) double settle_[kCornerLanes] = {};
};

}  // namespace agingsim
