#pragma once

// Corner-parallel timing kernel (docs/PERF.md "MC corner-parallel
// scoring" and "Fault-campaign trial lanes").
//
// The batch kernel packs *patterns* into lanes; this one packs *delay
// tables*. Process variation, aging and delay-outlier faults change only
// gate delays, so every corner sees the same values, the same switching
// and the same products; only arrivals differ. One CornerTimingSim
// therefore settles up to 64 operand patterns per step_word call. One
// eval_word sweep (word_eval.hpp, the batch kernel's value model) settles
// every net on every pattern, from the values the previous word left.
// The change masks then list, pattern by pattern, the gates whose value
// changed (narrowed first to each block of 8 patterns' gates), and only
// those are timed, once per lane, each lane being one delay table.
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
// its last consumer (primary outputs: to the end of the pattern). A gate
// fed only by primary inputs needs no slot: it settles at 0.0 + delay in
// every lane, so its net reads the gate's delay row. The 16-bit
// multipliers keep 47-62 slots for their 1 400-2 400 nets.

#include <cstdint>
#include <span>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/netlist/cell.hpp"
#include "src/netlist/logic.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/batch_sim.hpp"

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

  /// Returns every net to the all-X power-up state; the following words
  /// settle lanes [0, lanes).
  void power_up(int lanes);

  /// Applies `patterns` input patterns, in order, to every lane and
  /// settles the netlist after each. `input_bits` holds one word per
  /// primary input (in input order): bit p is the value that input takes
  /// on pattern p, a known 0/1 like a load_bus pattern. Returns
  /// patterns x kCornerLanes settle times (ps), pattern-major: entry
  /// p * kCornerLanes + l is lane l's output settle on pattern p, the
  /// latest arrival among primary outputs that changed, 0 if none did —
  /// StepResult::output_settle_ps of the scalar kernel. Lanes past
  /// power_up's count are unspecified. The span is valid until the next
  /// call.
  std::span<const double> step_word(std::span<const std::uint64_t> input_bits,
                                    int patterns = kBatchLanes);

  /// Value of `net` after pattern `pattern` of the last word; net values
  /// are shared by every lane. Throws std::out_of_range on a pattern the
  /// last word did not hold.
  Logic lane_value(NetId net, int pattern) const;

  /// Packs the primary outputs after pattern `pattern` of the last word
  /// LSB-first. Throws std::out_of_range on a pattern the last word did not
  /// hold (before any word, every pattern), and std::logic_error on an X/Z
  /// output or more than 64 outputs, like TimingSim::output_bits.
  std::uint64_t output_bits(int pattern) const;

  /// Arrival slots the live-range allocation needs (the peak number of
  /// simultaneously live nets driven by gates that read another gate).
  std::size_t num_slots() const noexcept {
    return (rows_.size() - std::size_t(first_slot_)) / kCornerLanes;
  }

 private:
  /// Lane array holding `net`'s arrivals on the current pattern when it
  /// changed: its slot, or its driver's delay row when only primary inputs
  /// feed that gate. Otherwise all zeros (a stable net, or a primary
  /// input, arrives at t = 0).
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
  /// Rows of kCornerLanes: one delay row per gate, then the arrival slots
  /// from `first_slot_` on.
  std::vector<double> rows_;
  std::int64_t first_slot_ = 0;
  /// Per net + pad: the row in rows_ holding its arrivals, -1 when
  /// nobody reads them.
  std::vector<std::int64_t> row_;
  std::vector<detail::NetLanes> planes_;  // per net + pad: the last word
  /// Per net + pad: the value on the current pattern. Between words it is
  /// the value after the last pattern, the state the next word starts from.
  std::vector<Logic> value_;
  std::vector<std::uint8_t> changed_;  // per net + pad: changed this pattern
  std::vector<std::uint64_t> input_changed_;  // per input: patterns it changed
  /// The gates whose value changed on some pattern of the word, ascending,
  /// and the patterns each changed on.
  std::vector<GateId> active_;
  std::vector<std::uint64_t> active_changed_;
  /// The active gates that change in the current block of patterns, and
  /// the block's patterns each changed on.
  std::vector<GateId> block_;
  std::vector<std::uint8_t> block_changed_;
  std::vector<GateId> changed_gates_;  // the current pattern's, ascending
  std::vector<double> settle_;         // kBatchLanes x kCornerLanes
  int lanes_ = kCornerLanes;
  int patterns_ = 0;                   // patterns of the last word
};

}  // namespace agingsim
