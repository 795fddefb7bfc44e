#include "src/aging/stress.hpp"

#include <gtest/gtest.h>

#include "src/netlist/builder.hpp"

namespace agingsim {
namespace {

TEST(StressTest, ProbabilitiesAreWellFormed) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  nb.netlist().mark_output(nb.and2(a, b), "y");
  const StressProfile p = estimate_stress(nb.netlist(), 1, 2000);
  ASSERT_EQ(p.net_p_one.size(), nb.netlist().num_nets());
  ASSERT_EQ(p.pmos_stress.size(), nb.netlist().num_gates());
  for (double v : p.net_p_one) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  for (GateId g = 0; g < nb.netlist().num_gates(); ++g) {
    EXPECT_NEAR(p.pmos_stress[g] + p.nmos_stress[g], 1.0, 1e-12);
  }
}

TEST(StressTest, GateProbabilitiesMatchTheory) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId y_and = nb.and2(a, b);   // P(1) = 1/4
  const NetId y_or = nb.or2(a, b);     // P(1) = 3/4
  const NetId y_xor = nb.xor2(a, b);   // P(1) = 1/2
  const NetId y_inv = nb.inv(a);       // P(1) = 1/2
  nb.netlist().mark_output(y_and, "and");
  nb.netlist().mark_output(y_or, "or");
  nb.netlist().mark_output(y_xor, "xor");
  nb.netlist().mark_output(y_inv, "inv");
  const StressProfile p = estimate_stress(nb.netlist(), 2, 8000);
  EXPECT_NEAR(p.net_p_one[y_and], 0.25, 0.02);
  EXPECT_NEAR(p.net_p_one[y_or], 0.75, 0.02);
  EXPECT_NEAR(p.net_p_one[y_xor], 0.50, 0.02);
  EXPECT_NEAR(p.net_p_one[y_inv], 0.50, 0.02);
}

TEST(StressTest, TieNetsAreDeterministic) {
  NetlistBuilder nb;
  const NetId z = nb.zero();
  const NetId o = nb.one();
  nb.input("a");
  nb.netlist().mark_output(z, "z");
  nb.netlist().mark_output(o, "o");
  const StressProfile p = estimate_stress(nb.netlist(), 3, 100);
  EXPECT_DOUBLE_EQ(p.net_p_one[z], 0.0);
  EXPECT_DOUBLE_EQ(p.net_p_one[o], 1.0);
}

TEST(StressTest, RejectsZeroPatterns) {
  NetlistBuilder nb;
  nb.input("a");
  EXPECT_THROW(estimate_stress(nb.netlist(), 1, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace agingsim
