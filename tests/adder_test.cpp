#include "src/adder/adder.hpp"

#include <gtest/gtest.h>

#include "src/netlist/techlib.hpp"
#include "src/sim/sta.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

struct AdderSim {
  explicit AdderSim(const AdderNetlist& adder)
      : adder_(&adder),
        sim_(adder.netlist, default_tech_library()),
        pattern_(adder.netlist.num_inputs()) {}

  StepResult apply(std::uint64_t a, std::uint64_t b) {
    load_bus(pattern_, a, adder_->width, adder_->a_first_input);
    load_bus(pattern_, b, adder_->width, adder_->b_first_input);
    return sim_.step(pattern_);
  }

  // Sum including carry-out (bit `width`); hold bit excluded.
  std::uint64_t sum() const {
    const std::uint64_t bits = sim_.output_bits();
    return bits & ((std::uint64_t{1} << (adder_->width + 1)) - 1);
  }
  bool hold() const {
    return (sim_.output_bits() >> (adder_->width + 1)) & 1;
  }

  const AdderNetlist* adder_;
  TimingSim sim_;
  std::vector<Logic> pattern_;
};

class AdderWidthParam : public ::testing::TestWithParam<int> {};

TEST_P(AdderWidthParam, RcaMatchesReference) {
  const AdderNetlist rca = build_ripple_carry_adder(GetParam());
  AdderSim sim(rca);
  Rng rng(11 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t a = rng.next_bits(GetParam());
    const std::uint64_t b = rng.next_bits(GetParam());
    sim.apply(a, b);
    ASSERT_EQ(sim.sum(), reference_add(a, b, GetParam())) << a << "+" << b;
  }
}

TEST_P(AdderWidthParam, ClaMatchesReference) {
  const AdderNetlist cla = build_carry_lookahead_adder(GetParam());
  AdderSim sim(cla);
  Rng rng(13 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t a = rng.next_bits(GetParam());
    const std::uint64_t b = rng.next_bits(GetParam());
    sim.apply(a, b);
    ASSERT_EQ(sim.sum(), reference_add(a, b, GetParam())) << a << "+" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidthParam,
                         ::testing::Values(2, 3, 4, 8, 16, 32, 48));

TEST(AdderTest, ExhaustiveFourBit) {
  const AdderNetlist rca = build_ripple_carry_adder(4);
  AdderSim sim(rca);
  for (std::uint64_t a = 0; a < 16; ++a) {
    for (std::uint64_t b = 0; b < 16; ++b) {
      sim.apply(a, b);
      ASSERT_EQ(sim.sum(), a + b);
    }
  }
}

TEST(AdderTest, VariableLatencyRcaComputesSumAndHold) {
  // The paper's Fig. 4: 8-bit RCA, hold = (A4^B4)&(A5^B5) (bit indices 4,5
  // 0-based are the paper's A5/A6... the paper's A4/A5 are 1-based; we
  // probe 0-based bits 3 and 4 to match).
  const AdderNetlist vl = build_variable_latency_rca(8, 3, 2);
  ASSERT_TRUE(vl.has_hold);
  AdderSim sim(vl);
  for (std::uint64_t a = 0; a < 256; ++a) {
    for (std::uint64_t b = 0; b < 256; b += 7) {
      sim.apply(a, b);
      ASSERT_EQ(sim.sum(), a + b);
      ASSERT_EQ(sim.hold(), hold_predicate(a, b, 3, 2)) << a << " " << b;
    }
  }
}

TEST(AdderTest, HoldZeroBoundsThePathDelay) {
  // The guarantee the hold logic provides: when hold = 0 the carry chain
  // breaks inside the probed window, so the observed delay never reaches
  // what a full-length carry ripple produces. hold = 1 doesn't *force* a
  // long path — it admits one, so the adversarial all-propagate pattern
  // (a = 111...1, b = 1, carry ripples through every stage) must be slower
  // than every hold-0 pattern.
  const int width = 12, first = 4, probes = 2;
  const AdderNetlist vl = build_variable_latency_rca(width, first, probes);
  AdderSim sim(vl);
  Rng rng(99);
  double max_hold0 = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t a = rng.next_bits(width);
    const std::uint64_t b = rng.next_bits(width);
    const StepResult r = sim.apply(a, b);
    ASSERT_EQ(sim.sum(), reference_add(a, b, width));
    if (!sim.hold()) max_hold0 = std::max(max_hold0, r.output_settle_ps);
  }
  // Settle into a quiet state, then fire the full-length ripple.
  sim.apply(0, 0);
  const std::uint64_t all_ones = (std::uint64_t{1} << width) - 1;
  const StepResult ripple = sim.apply(all_ones, 1);
  ASSERT_EQ(sim.sum(), all_ones + 1);
  ASSERT_TRUE(sim.hold());  // every bit pair propagates
  EXPECT_GT(ripple.output_settle_ps, max_hold0);
}

TEST(AdderTest, HoldProbabilityIsQuarterForTwoProbes) {
  // Paper Section II-C: P(hold = 1) = 0.25 for two probed bit pairs, giving
  // the 0.75*5 + 0.25*10 = 6.25 average-latency argument.
  Rng rng(123);
  int holds = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    holds += hold_predicate(rng.next_bits(8), rng.next_bits(8), 3, 2);
  }
  EXPECT_NEAR(static_cast<double>(holds) / trials, 0.25, 0.02);
}

TEST(AdderTest, ClaIsFasterThanRca) {
  const TechLibrary& t = default_tech_library();
  const double rca = StaEngine(build_ripple_carry_adder(32).netlist, t)
                         .run_corner({})
                         .critical_path_ps;
  const double cla = StaEngine(build_carry_lookahead_adder(32).netlist, t)
                         .run_corner({})
                         .critical_path_ps;
  EXPECT_LT(cla, rca);
}

TEST(AdderTest, Validation) {
  EXPECT_THROW(build_ripple_carry_adder(1), std::invalid_argument);
  EXPECT_THROW(build_ripple_carry_adder(64), std::invalid_argument);
  EXPECT_THROW(build_variable_latency_rca(8, 7, 2), std::invalid_argument);
  EXPECT_THROW(build_variable_latency_rca(8, -1, 2), std::invalid_argument);
  EXPECT_THROW(build_variable_latency_rca(8, 3, 0), std::invalid_argument);
  EXPECT_THROW(reference_add(1, 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace agingsim
