#include "src/aging/stress.hpp"

#include <algorithm>
#include <stdexcept>

#include "src/obs/trace.hpp"
#include "src/sim/value_sweep.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

/// std::popcount without the libgcc call it compiles to on the baseline
/// x86-64 target: the count runs once per net per word.
constexpr std::uint64_t count_ones(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555u;
  x = (x & 0x3333333333333333u) + ((x >> 2) & 0x3333333333333333u);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Fu;
  return (x * 0x0101010101010101u) >> 56;
}

}  // namespace

StressProfile estimate_stress(const Netlist& netlist, std::uint64_t seed,
                              std::size_t num_patterns) {
  if (num_patterns == 0) {
    throw std::invalid_argument("estimate_stress: need at least one pattern");
  }
  obs::TraceSpan span("aging.stress", num_patterns);
  const std::size_t num_nets = netlist.num_nets();
  const GateId num_gates = static_cast<GateId>(netlist.num_gates());

  // Pattern p sits in lane p % 64 of word p / 64.
  ValueSweep sweep(netlist);
  std::vector<std::uint64_t> ones(num_nets, 0);
  std::vector<std::uint64_t> input_bits(netlist.num_inputs());
  Rng rng(seed);

  for (std::size_t first = 0; first < num_patterns; first += kBatchLanes) {
    const int lanes = static_cast<int>(std::min<std::size_t>(
        kBatchLanes, num_patterns - first));
    // Same draw order as one pattern after another: pattern-major, then
    // input order.
    std::fill(input_bits.begin(), input_bits.end(), 0);
    for (int l = 0; l < lanes; ++l) {
      for (auto& bits : input_bits) bits |= (rng.next() & 1u) << l;
    }
    sweep.step_word(input_bits, lanes);
    for (NetId n = 0; n < num_nets; ++n) {
      ones[n] += count_ones(sweep.ones(n));
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
