#include "src/sim/value_sweep.hpp"

#include <stdexcept>

#include "src/sim/word_eval.hpp"

// A translation unit of its own: eval_word, called once here, inlines;
// inside batch_sim.cpp, beside the word sweep's calls, GCC kept it out of
// line and the sweep ran at half the speed.

namespace agingsim {

ValueSweep::ValueSweep(const Netlist& netlist)
    : netlist_(&netlist),
      gates_(netlist.num_gates()),
      p0_(netlist.num_nets() + 1, 0),
      p1_(netlist.num_nets() + 1, ~std::uint64_t{0}),
      carried_(netlist.num_nets() + 1, Logic::kX),
      moved_(netlist.num_nets() + 1, 0) {
  const auto pad = static_cast<NetId>(netlist.num_nets());
  for (GateId g = 0; g < gates_.size(); ++g) {
    const auto ins = netlist.gate_inputs(g);
    SweepGate& sg = gates_[g];
    for (std::size_t k = 0; k < 3; ++k) {
      sg.in[k] = k < ins.size() ? ins[k] : pad;
    }
    sg.out = netlist.gate(g).out;
    sg.kind = netlist.gate(g).kind;
  }
}

void ValueSweep::step_word(std::span<const std::uint64_t> input_bits,
                           int lanes) {
  const Netlist& nl = *netlist_;
  if (input_bits.size() != nl.num_inputs()) {
    throw std::invalid_argument("ValueSweep::step_word: wrong input count");
  }
  if (lanes < 1 || lanes > kBatchLanes) {
    throw std::invalid_argument(
        "ValueSweep::step_word: lanes must be in [1, 64]");
  }
  const std::uint64_t mask = lanes == kBatchLanes
                                 ? ~std::uint64_t{0}
                                 : ((std::uint64_t{1} << lanes) - 1);
  lane_mask_ = mask;
  // Records net `n`'s planes for the word and brings its carried value to
  // the last lane.
  const auto settle = [&](NetId n, std::uint64_t p0, std::uint64_t p1) {
    p0_[n] = p0;
    p1_[n] = p1;
    moved_[n] = detail::lane_edges(p0, p1, carried_[n], mask).changed != 0;
    carried_[n] = detail::lane_logic(p0, p1, lanes - 1);
  };
  const auto input_nets = nl.input_nets();
  for (std::size_t i = 0; i < input_nets.size(); ++i) {
    settle(input_nets[i], input_bits[i] & mask, 0);
  }
  // Ascending gate id is a topological order (a gate's inputs exist before
  // it does), so every fanin word is final when a gate reads it.
  for (const SweepGate& sg : gates_) {
    if (!first_word_ &&
        (moved_[sg.in[0]] | moved_[sg.in[1]] | moved_[sg.in[2]]) == 0) {
      // Its inputs held their values, so it holds its own.
      const auto c = static_cast<std::uint64_t>(carried_[sg.out]);
      p0_[sg.out] = (c & 1u) != 0 ? mask : 0;
      p1_[sg.out] = (c >> 1) != 0 ? mask : 0;
      moved_[sg.out] = 0;
      continue;
    }
    const std::uint64_t ip0[3] = {p0_[sg.in[0]], p0_[sg.in[1]],
                                  p0_[sg.in[2]]};
    const std::uint64_t ip1[3] = {p1_[sg.in[0]], p1_[sg.in[1]],
                                  p1_[sg.in[2]]};
    const detail::WordPlanes out =
        detail::eval_word(sg.kind, ip0, ip1, carried_[sg.out], mask);
    settle(sg.out, out.p0 & mask, out.p1 & mask);
  }
  first_word_ = false;
}

}  // namespace agingsim
