// Section II-C / Fig. 4 — the paper's motivating example: an 8-bit
// ripple-carry adder with hold logic (A4^B4)&(A5^B5). With P(hold) = 0.25
// and a cycle period of 5 FA stages, the paper computes
//   average latency = 0.75*5 + 0.25*10 = 6.25  (vs 8 for fixed latency)
// i.e. a 28% performance improvement. This bench regenerates both the
// analytic argument (in FA-stage units) and the gate-level measurement.

#include "bench/common.hpp"
#include "src/adder/adder.hpp"
#include "src/sim/sta.hpp"
#include "src/sim/timing_sim.hpp"

using namespace agingsim;
using namespace agingsim::bench;

static int bench_body() {
  preamble("Sec. II-C / Fig. 4", "8-bit variable-latency RCA with hold logic");
  const TechLibrary& t = tech();

  // Paper bit indices A4/A5 are 1-based; probing 0-based bits 3 and 4
  // splits the chain 5 + 3, exactly the figure's layout.
  const AdderNetlist vl = build_variable_latency_rca(8, 3, 2);
  const double crit = StaEngine(vl.netlist, t).run_corner({}).critical_path_ps;

  TimingSim sim(vl.netlist, t);
  std::vector<Logic> pattern(vl.netlist.num_inputs());
  Rng rng(0x44);
  const std::size_t kOps = 50000;
  std::uint64_t holds = 0;
  double max_delay_hold0 = 0.0;
  for (std::size_t i = 0; i < kOps; ++i) {
    const std::uint64_t a = rng.next_bits(8), b = rng.next_bits(8);
    load_bus(pattern, a, 8, vl.a_first_input);
    load_bus(pattern, b, 8, vl.b_first_input);
    const StepResult r = sim.step(pattern);
    const bool hold = (sim.output_bits() >> 9) & 1;
    holds += hold;
    if (!hold) max_delay_hold0 = std::max(max_delay_hold0, r.output_settle_ps);
  }
  const double p_hold = static_cast<double>(holds) / kOps;

  Table tab("Fig. 4 variable-latency adder",
            {"quantity", "measured", "paper"});
  tab.add_row({"P(hold = 1)", Table::pct(p_hold, 2), "25.00%"});
  tab.add_row({"avg latency (stage units, T = 5)",
               Table::fmt((1.0 - p_hold) * 5.0 + p_hold * 10.0, 3), "6.250"});
  tab.add_row({"fixed latency (stage units)", "8.000", "8.000"});
  // The paper quotes throughput improvement: 8 / 6.25 = 1.28.
  tab.add_row({"throughput improvement",
               Table::pct(8.0 / ((1.0 - p_hold) * 5.0 + p_hold * 10.0) - 1.0,
                          1),
               "28%"});
  tab.add_row({"gate-level critical path (ns)", Table::fmt(ns(crit), 3), "-"});
  tab.add_row({"max observed delay when hold=0 (ns)",
               Table::fmt(ns(max_delay_hold0), 3), "-"});
  tab.print(std::cout);
  std::printf(
      "Reproduction targets: P(hold) = (1/2)^2 = 25%%; the 6.25-vs-8 stage\n"
      "argument; and the safety property that hold = 0 patterns settle well\n"
      "inside the short cycle (%.0f%% of the critical path here).\n",
      100.0 * max_delay_hold0 / crit);
  return 0;
}

AGINGSIM_BENCH_MAIN("bench_sec2c_vl_adder", bench_body)
