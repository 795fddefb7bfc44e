#include "src/aging/stress.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "src/obs/trace.hpp"
#include "src/sim/word_eval.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

constexpr int kLanes = 64;  // patterns per word: one bit each

}  // namespace

StressProfile estimate_stress(const Netlist& netlist, std::uint64_t seed,
                              std::size_t num_patterns) {
  if (num_patterns == 0) {
    throw std::invalid_argument("estimate_stress: need at least one pattern");
  }
  obs::TraceSpan span("aging.stress", num_patterns);
  const std::size_t num_nets = netlist.num_nets();
  const auto input_nets = netlist.input_nets();
  const GateId num_gates = static_cast<GateId>(netlist.num_gates());

  // Pattern p sits in lane p % 64 of word p / 64. Every net powers up X
  // (planes 0/1) and a net nothing drives stays X; `kept` is each net's
  // value after the previous word's last lane (the Tbuf keeper carry).
  std::vector<std::uint64_t> plane0(num_nets, 0);
  std::vector<std::uint64_t> plane1(num_nets, ~std::uint64_t{0});
  std::vector<Logic> kept(num_nets, Logic::kX);
  std::vector<std::uint64_t> ones(num_nets, 0);
  std::vector<std::uint64_t> input_bits(input_nets.size());
  Rng rng(seed);

  for (std::size_t first = 0; first < num_patterns; first += kLanes) {
    const int lanes = static_cast<int>(std::min<std::size_t>(
        kLanes, num_patterns - first));
    const std::uint64_t lane_mask = lanes == kLanes
                                        ? ~std::uint64_t{0}
                                        : ((std::uint64_t{1} << lanes) - 1);
    // Same draw order as one pattern after another: pattern-major, then
    // input order.
    std::fill(input_bits.begin(), input_bits.end(), 0);
    for (int l = 0; l < lanes; ++l) {
      for (auto& bits : input_bits) bits |= (rng.next() & 1u) << l;
    }
    for (std::size_t i = 0; i < input_nets.size(); ++i) {
      plane0[input_nets[i]] = input_bits[i];
      plane1[input_nets[i]] = 0;
    }

    // Ascending gate id is a topological order (a gate's inputs exist
    // before it does), so every fanin word is final when a gate reads it.
    for (GateId g = 0; g < num_gates; ++g) {
      const Gate& gate = netlist.gate(g);
      const auto ins = netlist.gate_inputs(g);
      std::uint64_t ip0[3] = {}, ip1[3] = {};
      for (std::size_t k = 0; k < ins.size(); ++k) {
        ip0[k] = plane0[ins[k]];
        ip1[k] = plane1[ins[k]];
      }
      const detail::WordPlanes out = detail::eval_word(
          gate.kind, ip0, ip1, kept[gate.out], lanes, lane_mask);
      plane0[gate.out] = out.p0;
      plane1[gate.out] = out.p1;
      kept[gate.out] = detail::lane_logic(out.p0, out.p1, lanes - 1);
    }

    for (NetId n = 0; n < num_nets; ++n) {
      ones[n] += static_cast<std::uint64_t>(
          std::popcount(plane0[n] & ~plane1[n] & lane_mask));
    }
  }

  StressProfile prof;
  prof.net_p_one.resize(num_nets);
  for (NetId n = 0; n < num_nets; ++n) {
    prof.net_p_one[n] = static_cast<double>(ones[n]) /
                        static_cast<double>(num_patterns);
  }
  prof.pmos_stress.resize(num_gates);
  prof.nmos_stress.resize(num_gates);
  for (GateId g = 0; g < num_gates; ++g) {
    const double p1 = prof.net_p_one[netlist.gate(g).out];
    prof.pmos_stress[g] = p1;
    prof.nmos_stress[g] = 1.0 - p1;
  }
  return prof;
}

}  // namespace agingsim
