#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace agingsim {

/// Per-gate BTI stress duty factors extracted by Monte-Carlo simulation.
///
/// In a static CMOS gate the pull-up pMOS devices conduct (and sit under
/// negative gate bias, i.e. NBTI stress) while the output is high; the
/// pull-down nMOS devices are under PBTI stress while the output is low.
/// So to first order:  S_pmos = P(out = 1),  S_nmos = P(out = 0).
struct StressProfile {
  std::vector<double> net_p_one;      ///< per net: probability of logic 1
  std::vector<double> pmos_stress;    ///< per gate: NBTI duty factor
  std::vector<double> nmos_stress;    ///< per gate: PBTI duty factor
};

/// Estimates signal probabilities by driving the netlist with `num_patterns`
/// uniform random input vectors (seeded, reproducible), applied one after
/// another from the all-X power-up state. Only logic values matter, so a
/// ValueSweep evaluates the patterns 64 at a time, one bit lane each; the
/// counts of ones are exactly those of a pattern-by-pattern TimingSim run,
/// Tbuf keeper states included.
StressProfile estimate_stress(const Netlist& netlist, std::uint64_t seed,
                              std::size_t num_patterns);

}  // namespace agingsim
