#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/netlist/builder.hpp"
#include "src/netlist/netlist.hpp"

namespace agingsim {

/// Adder netlist generators. The ripple-carry adder plus hold logic
/// reproduces the paper's Section II-C motivating example (Fig. 4): an
/// 8-bit RCA whose hold logic (A4^B4)&(A5^B5) predicts whether the carry
/// chain can exceed five stages.
///
/// Primary inputs: a[0..width), b[0..width); outputs s[0..width) plus the
/// final carry `cout`. The variable-latency variant adds one more output,
/// `hold`, after the sum bits.
struct AdderNetlist {
  Netlist netlist;
  int width;
  int a_first_input;
  int b_first_input;
  bool has_hold = false;  ///< last output is the hold-logic signal
};

/// Plain ripple-carry adder: `width` full adders in a carry chain.
AdderNetlist build_ripple_carry_adder(int width);

/// Carry-lookahead adder with 4-bit groups: group generate/propagate terms
/// are two-level logic, so the carry chain advances four bits per
/// group-carry stage — a ~3x depth win over the RCA at moderate cost.
AdderNetlist build_carry_lookahead_adder(int width);

/// The paper's Fig. 4: a ripple-carry adder plus hold logic.
///
/// The hold function ANDs the XORs of `probe_bits` consecutive operand bit
/// pairs starting at `first_probe` (Fig. 4 uses bits 4 and 5 of an 8-bit
/// adder: (A4^B4)&(A5^B5)). hold = 1 means a carry could propagate through
/// every probed stage, i.e. the operation may need the long path and must
/// take two cycles; hold = 0 guarantees the carry chain breaks inside the
/// probed window, bounding the delay to roughly `first_probe + probe_bits`
/// stages.
AdderNetlist build_variable_latency_rca(int width, int first_probe,
                                        int probe_bits);

/// Golden reference (mod 2^width sum plus carry-out in bit `width`).
std::uint64_t reference_add(std::uint64_t a, std::uint64_t b, int width);

/// Builds a Kogge-Stone parallel-prefix carry network (O(log width) depth)
/// over per-bit generate/propagate signals; returns carries c[0..width]
/// with c[0] = cin. The Wallace-tree multiplier's final carry-propagate
/// stage.
std::vector<NetId> kogge_stone_carries(NetlistBuilder& nb,
                                       std::span<const NetId> g,
                                       std::span<const NetId> p, NetId cin);

/// Behavioural hold-logic predicate matching the netlist's hold output.
bool hold_predicate(std::uint64_t a, std::uint64_t b, int first_probe,
                    int probe_bits);

}  // namespace agingsim
