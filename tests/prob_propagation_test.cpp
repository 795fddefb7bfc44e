#include "src/aging/prob_propagation.hpp"

#include <gtest/gtest.h>

#include "src/aging/scenario.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"

namespace agingsim {
namespace {

TEST(ProbPropagationTest, GateFormulas) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId c = nb.input("c");
  const NetId y_and = nb.and2(a, b);
  const NetId y_or = nb.or2(a, b);
  const NetId y_xor = nb.xor2(a, b);
  const NetId y_inv = nb.inv(a);
  const NetId y_mux = nb.mux2(y_and, y_or, c);  // 0.5*(0.25 + 0.75)
  const NetId y_and3 = nb.netlist().add_gate(CellKind::kAnd3, {a, b, c});
  const NetId zero = nb.zero();
  const NetId one = nb.one();
  const auto p = propagate_signal_probabilities(nb.netlist());
  EXPECT_DOUBLE_EQ(p[a], 0.5);
  EXPECT_DOUBLE_EQ(p[y_and], 0.25);
  EXPECT_DOUBLE_EQ(p[y_or], 0.75);
  EXPECT_DOUBLE_EQ(p[y_xor], 0.5);
  EXPECT_DOUBLE_EQ(p[y_inv], 0.5);
  EXPECT_DOUBLE_EQ(p[y_mux], 0.5);
  EXPECT_DOUBLE_EQ(p[y_and3], 0.125);
  EXPECT_DOUBLE_EQ(p[zero], 0.0);
  EXPECT_DOUBLE_EQ(p[one], 1.0);
}

TEST(ProbPropagationTest, TrackMonteCarloOnRealNetlist) {
  // Independence is only approximate under reconvergent fanout, but the
  // aggregate stress picture must track the Monte-Carlo extraction.
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const auto analytic = analytic_stress(m.netlist);
  const auto mc = estimate_stress(m.netlist, 5, 4000);
  double mean_abs_err = 0.0, max_err = 0.0;
  for (GateId g = 0; g < m.netlist.num_gates(); ++g) {
    const double e = std::abs(analytic.pmos_stress[g] - mc.pmos_stress[g]);
    mean_abs_err += e;
    max_err = std::max(max_err, e);
  }
  mean_abs_err /= static_cast<double>(m.netlist.num_gates());
  // Reconvergent fanout (the bypass selects fan out to every cell of their
  // column) makes independence noticeably approximate here; the aggregate
  // stress picture still tracks.
  EXPECT_LT(mean_abs_err, 0.12);
  EXPECT_LT(max_err, 0.60);
}

TEST(ProbPropagationTest, UsableAsAgingScenarioInput) {
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const TechLibrary& tech = default_tech_library();
  AgingScenario scenario(m.netlist, tech, BtiModel::calibrated(tech),
                         analytic_stress(m.netlist));
  const auto scales = scenario.delay_scales_at(7.0);
  ASSERT_EQ(scales.size(), m.netlist.num_gates());
  for (double s : scales) EXPECT_GE(s, 1.0);
  // And roughly agrees with the Monte-Carlo scenario.
  AgingScenario mc(m.netlist, tech, BtiModel::calibrated(tech), 9, 2000);
  EXPECT_NEAR(scenario.mean_dvth_at(7.0), mc.mean_dvth_at(7.0), 0.004);
}

TEST(ProbPropagationTest, MismatchedProfileIsRejected) {
  const MultiplierNetlist m8 = build_column_bypass_multiplier(8);
  const MultiplierNetlist m4 = build_column_bypass_multiplier(4);
  const TechLibrary& tech = default_tech_library();
  EXPECT_THROW(AgingScenario(m8.netlist, tech, BtiModel::calibrated(tech),
                             analytic_stress(m4.netlist)),
               std::invalid_argument);
}

}  // namespace
}  // namespace agingsim
