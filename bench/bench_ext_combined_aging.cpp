// Extension bench — the paper's conclusion: "If the aging effects caused by
// the BTI effect and electromigration are considered together, the delay
// and performance degradation will be more significant. Fortunately, our
// proposed variable latency multipliers can be used under the influence of
// both." Plus the related-work process-variation angle [19].
//
// Panel 1: 16x16 CB latency over 7 years under BTI only, EM only, and
//          BTI x EM, for the fixed design (guard-banded) vs the A-VLCB.
// Panel 2: 20 process-variation corners: the fixed design must clock at its
//          worst-corner critical path; the A-VLCB just absorbs slow corners
//          as slightly higher error/two-cycle rates.

#include "bench/common.hpp"
#include "src/aging/electromigration.hpp"
#include "src/aging/variation.hpp"

using namespace agingsim;
using namespace agingsim::bench;

static int bench_body() {
  preamble("Extension", "combined BTI + electromigration + variation, 16x16 CB");
  const TechLibrary& t = tech();
  const MultiplierNetlist cb = build_column_bypass_multiplier(16);
  const auto pats = workload(16, default_ops());

  // --- Panel 1: BTI x EM over seven years -------------------------------
  const BtiModel bti = BtiModel::calibrated(t);
  AgingScenario scenario(cb.netlist, t, bti, 0xE31, 1000);
  ElectromigrationModel em;  // 10-year MTTF corner

  Table p1("Seven-year degradation, 16x16 CB (latency, ns)",
           {"year", "FL (BTI)", "FL (EM)", "FL (BTI x EM)", "A-VLCB @1.2ns",
            "A-VLCB err/10k"});
  for (int year = 0; year <= 7; ++year) {
    const auto bti_scales = scenario.delay_scales_at(year);
    const double em_scale = em.wire_delay_scale(year);
    std::vector<double> em_scales(cb.netlist.num_gates(), em_scale);
    const auto both = combine_scales({bti_scales, em_scales});

    const double fl_bti = critical_path_ps(cb, t, bti_scales);
    const double fl_em = critical_path_ps(cb, t, em_scales);
    const double fl_both = critical_path_ps(cb, t, both);

    const auto trace = compute_op_trace(
        cb, t, pats, TraceOptions{.gate_delay_scale = both});
    VlSystemConfig cfg;
    cfg.period_ps = 1200.0;
    cfg.ahl.width = 16;
    cfg.ahl.skip = 7;
    VariableLatencySystem vl(cb, t, cfg);
    const RunStats s = vl.run(trace, scenario.mean_dvth_at(year));

    p1.add_row({std::to_string(year), Table::fmt(ns(fl_bti), 3),
                Table::fmt(ns(fl_em), 3), Table::fmt(ns(fl_both), 3),
                Table::fmt(ns(s.avg_latency_ps), 3),
                Table::fmt(s.errors_per_10k_ops, 0)});
  }
  p1.print(std::cout);
  std::printf(
      "BTI and EM compose multiplicatively for the fixed design's cycle;\n"
      "the variable-latency design rides both out at an unchanged period,\n"
      "converting the compound degradation into a small error rate that the\n"
      "AHL keeps in check.\n\n");

  // --- Panel 2: process-variation corners --------------------------------
  const auto fresh_trace = compute_op_trace(cb, t, pats);
  double worst_corner_crit = 0.0;
  double worst_vl_latency = 0.0;
  Table p2("Process variation corners (sigma = 6%)",
           {"corner", "critical path (ns)", "A-VLCB latency (ns)",
            "A-VLCB err/10k"});
  for (std::uint64_t corner = 0; corner < 20; ++corner) {
    const auto scales = process_variation_scales(cb.netlist, 0.06, corner);
    const double crit = critical_path_ps(cb, t, scales);
    const auto trace = compute_op_trace(
        cb, t, pats, TraceOptions{.gate_delay_scale = scales});
    VlSystemConfig cfg;
    cfg.period_ps = 1000.0;
    cfg.ahl.width = 16;
    cfg.ahl.skip = 7;
    VariableLatencySystem vl(cb, t, cfg);
    const RunStats s = vl.run(trace);
    worst_corner_crit = std::max(worst_corner_crit, crit);
    worst_vl_latency = std::max(worst_vl_latency, s.avg_latency_ps);
    if (corner < 5) {
      p2.add_row({std::to_string(corner), Table::fmt(ns(crit), 3),
                  Table::fmt(ns(s.avg_latency_ps), 3),
                  Table::fmt(s.errors_per_10k_ops, 0)});
    }
  }
  p2.add_row({"worst of 20", Table::fmt(ns(worst_corner_crit), 3),
              Table::fmt(ns(worst_vl_latency), 3), "-"});
  p2.print(std::cout);
  std::printf(
      "A fixed design must guard-band to the worst corner (%.3f ns per op);\n"
      "the variable-latency design's worst-corner average stays at %.3f ns\n"
      "because Razor turns slow-corner long paths into rare re-executions —\n"
      "the same mechanism cited for variation tolerance in the paper's\n"
      "related work [19].\n",
      ns(worst_corner_crit), ns(worst_vl_latency));
  return 0;
}

AGINGSIM_BENCH_MAIN("bench_ext_combined_aging", bench_body)
