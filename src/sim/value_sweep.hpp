#pragma once

// Values-only word sweep: the one word sweep that settles values without
// timing. The corner kernel, stress extraction, trace ranges and lint's
// value checks share it.

#include <cstdint>
#include <span>
#include <vector>

#include "src/netlist/cell.hpp"
#include "src/netlist/logic.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sim/timing_sim.hpp"

namespace agingsim {

/// The value planes alone: every net's logic value on up to kBatchLanes
/// patterns per word, from the all-X power-up, with no timing. A word
/// sweeps the gates in ascending id with detail::eval_word, each from the
/// value its net held after the previous word's last lane (the Tbuf
/// keeper carry), so every lane holds exactly the value a pattern-by-
/// pattern TimingSim settles to. After the first word, a gate none of
/// whose inputs changed in the word holds its value in every lane and is
/// not evaluated. Stress extraction counts the ones (estimate_stress); a
/// trace range that starts past op 0 reaches the state before its first
/// op with it (compute_op_trace_range); CornerTimingSim times the gates
/// whose change mask it sets; lint compares outputs with it
/// (consistency.functional, lint::check_logic_equivalence).
class ValueSweep {
 public:
  /// One gate as the sweep reads it: inputs padded to three with a net
  /// that stays X and never changes.
  struct SweepGate {
    NetId in[3];
    NetId out;
    CellKind kind;
  };

  explicit ValueSweep(const Netlist& netlist);

  /// Returns every net to the all-X power-up; the next word evaluates
  /// every gate.
  void power_up();

  /// Settles lanes [0, lanes) of one word; `input_bits` as in
  /// BatchTimingSim::step_word, one known 0/1 word per primary input.
  void step_word(std::span<const std::uint64_t> input_bits,
                 int lanes = kBatchLanes);

  /// Lanes the last word settled; 0 before the first word and after
  /// power_up().
  int lanes() const noexcept { return lanes_; }

  /// Value of `net` on lane `lane` of the last word, lane in [0, lanes()).
  Logic value(NetId net, int lane) const noexcept {
    return static_cast<Logic>(((p0_[net] >> lane) & 1u) |
                              (((p1_[net] >> lane) & 1u) << 1));
  }

  /// The lanes of the last word on which `net` changed: lane 0 against its
  /// value before the word, every other lane against the lane below.
  std::uint64_t changed(NetId net) const noexcept { return changed_[net]; }

  /// The lanes of the last word in which `net` settled to One.
  std::uint64_t ones(NetId net) const noexcept {
    return p0_[net] & ~p1_[net];
  }

  /// Packs the primary outputs on lane `lane` of the last word LSB-first.
  /// Throws std::out_of_range on a lane the last word did not settle, and
  /// std::logic_error like TimingSim::output_bits.
  std::uint64_t output_bits(int lane) const;

  /// Every net's value after the last word's last lane; all X before the
  /// first word and after power_up().
  std::span<const Logic> values() const noexcept {
    return std::span(carried_).first(carried_.size() - 1);
  }

  /// The gates in ascending id, as the sweep reads them.
  std::span<const SweepGate> gates() const noexcept { return gates_; }

 private:
  const Netlist* netlist_;
  std::vector<SweepGate> gates_;
  // Per net, then the pad (X in every lane, never settled):
  std::vector<std::uint64_t> p0_, p1_;    // the last word's, 0 above its lanes
  std::vector<std::uint64_t> changed_;    // change masks of the last word
  std::vector<Logic> carried_;            // after the last word
  int lanes_ = 0;                         // lanes of the last word
  bool first_word_ = true;                // evaluates every gate
};

}  // namespace agingsim
