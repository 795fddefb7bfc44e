#pragma once

// Values-only word sweep: stress extraction and trace ranges share it.

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
/// whose inputs moved in the word holds its value in every lane and is
/// not evaluated. Stress extraction counts the ones (estimate_stress); a
/// trace range that starts past op 0 reaches the state before its first
/// op with it (compute_op_trace_range).
class ValueSweep {
 public:
  explicit ValueSweep(const Netlist& netlist);

  /// Settles lanes [0, lanes) of one word; `input_bits` as in
  /// BatchTimingSim::step_word, one known 0/1 word per primary input.
  void step_word(std::span<const std::uint64_t> input_bits,
                 int lanes = kBatchLanes);

  /// The lanes of the last word in which `net` settled to One.
  std::uint64_t ones(NetId net) const noexcept {
    return p0_[net] & ~p1_[net] & lane_mask_;
  }

  /// Every net's value after the last word's last lane; all X before the
  /// first word.
  std::span<const Logic> values() const noexcept {
    return std::span(carried_).first(carried_.size() - 1);
  }

 private:
  /// One gate as the sweep reads it: inputs padded to three with a net
  /// that stays X and never moves.
  struct SweepGate {
    NetId in[3];
    NetId out;
    CellKind kind;
  };

  const Netlist* netlist_;
  std::vector<SweepGate> gates_;
  // Per net, then the pad:
  std::vector<std::uint64_t> p0_, p1_;    // planes of the last word
  std::vector<Logic> carried_;            // after the last word
  std::vector<std::uint8_t> moved_;       // changed in some lane of it
  std::uint64_t lane_mask_ = 0;           // lanes of the last word
  bool first_word_ = true;                // evaluates every gate
};

}  // namespace agingsim
