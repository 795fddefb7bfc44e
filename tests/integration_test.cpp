// End-to-end integration tests: miniature versions of the paper's
// experiments wired through the full stack (netlist generation -> aging
// extraction -> trace simulation -> architectural policy -> metrics), at
// 8x8 scale so the whole file runs in seconds.

#include <gtest/gtest.h>

#include "src/aging/scenario.hpp"
#include "src/core/area.hpp"
#include "src/core/calibration.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/workload/histogram.hpp"
#include "src/workload/patterns.hpp"

namespace agingsim {
namespace {

TEST(IntegrationTest, DelayDistributionIsLeftSkewedVsCriticalPath) {
  // Fig. 5 premise: the overwhelming majority of random patterns settle in
  // far less than the critical path.
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const TechLibrary& tech = default_tech_library();
  const double crit = critical_path_ps(m, tech);
  Rng rng(1);
  const auto trace =
      compute_op_trace(m, tech, uniform_patterns(rng, 8, 2000));
  Histogram h(0.0, crit, 20);
  for (const auto& op : trace) h.add(op.delay_ps);
  EXPECT_GT(h.fraction_below(0.75 * crit), 0.9);
}

TEST(IntegrationTest, SevenYearStoryFixedDegradesVlHolds) {
  // Fig. 26 in miniature: over 7 years the fixed design's latency (its aged
  // critical path) degrades by double-digit percent, while a generously
  // clocked variable-latency design degrades only via its (unchanged)
  // period — i.e. not at all in latency, only in error margin.
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const TechLibrary& tech = default_tech_library();
  AgingScenario scenario(m.netlist, tech, BtiModel::calibrated(tech), 3, 400);

  const double crit0 = critical_path_ps(m, tech);
  const auto scales7 = scenario.delay_scales_at(7.0);
  const double crit7 = critical_path_ps(m, tech, scales7);
  EXPECT_GT(crit7 / crit0, 1.08);

  Rng rng(2);
  const auto pats = uniform_patterns(rng, 8, 2000);
  const auto trace0 = compute_op_trace(m, tech, pats);
  const auto trace7 = compute_op_trace(
      m, tech, pats, TraceOptions{.gate_delay_scale = scales7});

  VlSystemConfig cfg;
  cfg.period_ps = 0.75 * crit7;  // generous: no violations even aged
  cfg.ahl.width = 8;
  cfg.ahl.skip = 3;
  VariableLatencySystem vl(m, tech, cfg);
  const RunStats y0 = vl.run(trace0);
  const RunStats y7 = vl.run(trace7, scenario.mean_dvth_at(7.0));
  // Some aged one-cycle patterns may now violate, but the AHL adapts and
  // the latency penalty stays small compared to the fixed design's 8+%.
  EXPECT_LT(y7.avg_latency_ps / y0.avg_latency_ps, 1.05);
  EXPECT_EQ(y0.undetected, 0u);
  EXPECT_EQ(y7.undetected, 0u);
}

TEST(IntegrationTest, AgedPowerIsLowerThanFreshPower) {
  // Figs. 26(b)/27(b): power decreases progressively as Vth rises.
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const TechLibrary& tech = default_tech_library();
  AgingScenario scenario(m.netlist, tech, BtiModel::calibrated(tech), 5, 400);
  Rng rng(4);
  const auto pats = uniform_patterns(rng, 8, 1500);
  FixedLatencySystem fixed(m, tech);
  const auto trace0 = compute_op_trace(m, tech, pats);
  const double crit0 = critical_path_ps(m, tech);
  const RunStats y0 = fixed.run(trace0, crit0, 0.0);
  const auto scales = scenario.delay_scales_at(7.0);
  const auto trace7 = compute_op_trace(
      m, tech, pats, TraceOptions{.gate_delay_scale = scales});
  const RunStats y7 = fixed.run(trace7, critical_path_ps(m, tech, scales),
                                scenario.mean_dvth_at(7.0));
  EXPECT_LT(y7.avg_power_mw, y0.avg_power_mw);
}

TEST(IntegrationTest, AmHasHighestPower) {
  // Section IV-E / Fig. 26(b): "the AM has the largest average power".
  // Power is energy over each design's own cycle period: bypassing both
  // trims switching energy and (being slower) spreads it over a longer
  // cycle.
  const TechLibrary& tech = default_tech_library();
  Rng rng(6);
  const auto pats = uniform_patterns(rng, 16, 1000);
  double power[3];
  int idx = 0;
  for (auto arch : {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
                    MultiplierArch::kRowBypass}) {
    const MultiplierNetlist m = build_multiplier(arch, 16);
    const auto trace = compute_op_trace(m, tech, pats);
    FixedLatencySystem fixed(m, tech);
    power[idx++] =
        fixed.run(trace, critical_path_ps(m, tech)).avg_power_mw;
  }
  EXPECT_GT(power[0], power[1]);  // AM > FLCB
  EXPECT_GT(power[0], power[2]);  // AM > FLRB
}

TEST(IntegrationTest, OneCycleRatiosMatchBinomialTails) {
  // Tables I/II at 8-bit scale: measured one-cycle ratios track the
  // analytic binomial tails for both judging conventions.
  const TechLibrary& tech = default_tech_library();
  Rng rng(8);
  const auto pats = uniform_patterns(rng, 8, 4000);
  for (auto arch :
       {MultiplierArch::kColumnBypass, MultiplierArch::kRowBypass}) {
    const MultiplierNetlist m = build_multiplier(arch, 8);
    const auto trace = compute_op_trace(m, tech, pats);
    const double crit = critical_path_ps(m, tech);
    for (int skip : {3, 4, 5}) {
      VlSystemConfig cfg;
      cfg.period_ps = crit + 1.0;
      cfg.ahl.width = 8;
      cfg.ahl.skip = skip;
      VariableLatencySystem sys(m, tech, cfg);
      const RunStats s = sys.run(trace);
      EXPECT_NEAR(s.one_cycle_ratio, expected_one_cycle_ratio(8, skip), 0.03)
          << arch_name(arch) << " skip " << skip;
    }
  }
}

TEST(IntegrationTest, PreferredPeriodRangeExists) {
  // Fig. 13 premise: there is a period band where the VL bypassing design
  // beats the *array* multiplier's latency; far below it, re-execution
  // penalties dominate; far above, timing waste dominates.
  const TechLibrary tech = calibrated_tech_library();
  const MultiplierNetlist cb = build_column_bypass_multiplier(8);
  const MultiplierNetlist am = build_array_multiplier(8);
  const double am_crit = critical_path_ps(am, tech);
  const double cb_crit = critical_path_ps(cb, tech);
  Rng rng(10);
  const auto trace =
      compute_op_trace(cb, tech, uniform_patterns(rng, 8, 3000));

  double best = 1e18;
  for (double period = 0.5 * cb_crit; period <= cb_crit;
       period += 0.05 * cb_crit) {
    VlSystemConfig cfg;
    cfg.period_ps = period;
    cfg.ahl.width = 8;
    cfg.ahl.skip = 3;
    VariableLatencySystem sys(cb, tech, cfg);
    best = std::min(best, sys.run(trace).avg_latency_ps);
  }
  EXPECT_LT(best, am_crit);   // beats the AM somewhere in the band
  EXPECT_LT(best, cb_crit);   // and trivially the fixed CB
}

TEST(IntegrationTest, AreaOrderingMatchesFig25) {
  const auto am = build_array_multiplier(16);
  const auto cb = build_column_bypass_multiplier(16);
  const auto rb = build_row_bypass_multiplier(16);
  const auto am_area = fixed_latency_area(am).total();
  const auto flcb = fixed_latency_area(cb).total();
  const auto avlcb = variable_latency_area(cb).total();
  const auto flrb = fixed_latency_area(rb).total();
  const auto avlrb = variable_latency_area(rb).total();
  EXPECT_LT(am_area, flcb);
  EXPECT_LT(flcb, avlcb);
  EXPECT_LT(flrb, avlrb);
  EXPECT_LT(avlcb, avlrb);
}

}  // namespace
}  // namespace agingsim
