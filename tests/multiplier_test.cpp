#include "src/multiplier/multiplier.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "src/core/vl_multiplier.hpp"
#include "src/workload/patterns.hpp"

namespace agingsim {
namespace {

using ArchWidth = std::tuple<MultiplierArch, int>;

class MultiplierParam : public ::testing::TestWithParam<ArchWidth> {
 protected:
  MultiplierArch arch() const { return std::get<0>(GetParam()); }
  int width() const { return std::get<1>(GetParam()); }
};

TEST_P(MultiplierParam, ExhaustiveCorrectnessSmallWidths) {
  if (width() > 5) GTEST_SKIP() << "exhaustive only for small widths";
  const MultiplierNetlist m = build_multiplier(arch(), width());
  MultiplierSim sim(m, default_tech_library());
  const std::uint64_t lim = std::uint64_t{1} << width();
  for (std::uint64_t a = 0; a < lim; ++a) {
    for (std::uint64_t b = 0; b < lim; ++b) {
      sim.apply(a, b);
      ASSERT_EQ(sim.product(), a * b) << arch_name(arch()) << " " << a << "*"
                                      << b;
    }
  }
}

TEST_P(MultiplierParam, RandomCorrectnessLargeWidths) {
  const MultiplierNetlist m = build_multiplier(arch(), width());
  MultiplierSim sim(m, default_tech_library());
  Rng rng(0xABCDEF ^ static_cast<std::uint64_t>(width()));
  const int iters = width() >= 32 ? 150 : 400;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t a = rng.next_bits(width());
    const std::uint64_t b = rng.next_bits(width());
    sim.apply(a, b);
    ASSERT_EQ(sim.product(), reference_multiply(a, b, width()))
        << arch_name(arch()) << " " << a << "*" << b;
  }
}

TEST_P(MultiplierParam, CornerOperandsAreCorrect) {
  const MultiplierNetlist m = build_multiplier(arch(), width());
  MultiplierSim sim(m, default_tech_library());
  const std::uint64_t max = (std::uint64_t{1} << width()) - 1;
  const std::uint64_t corners[] = {0,       1,           2,
                                   max,     max - 1,     max >> 1,
                                   max ^ 1, 0x5555555555555555ull & max,
                                   0xAAAAAAAAAAAAAAAAull & max};
  for (std::uint64_t a : corners) {
    for (std::uint64_t b : corners) {
      sim.apply(a, b);
      ASSERT_EQ(sim.product(), reference_multiply(a, b, width()))
          << arch_name(arch()) << " " << a << "*" << b;
    }
  }
}

TEST_P(MultiplierParam, StructuralMetadata) {
  const MultiplierNetlist m = build_multiplier(arch(), width());
  EXPECT_EQ(m.arch, arch());
  EXPECT_EQ(m.width, width());
  EXPECT_EQ(m.a_first_input, 0);
  EXPECT_EQ(m.b_first_input, width());
  EXPECT_EQ(m.netlist.num_inputs(), static_cast<std::size_t>(2 * width()));
  EXPECT_EQ(m.netlist.num_outputs(), static_cast<std::size_t>(2 * width()));
  EXPECT_NO_THROW(m.netlist.validate());
}

INSTANTIATE_TEST_SUITE_P(
    ArchWidthSweep, MultiplierParam,
    ::testing::Combine(::testing::Values(MultiplierArch::kArray,
                                         MultiplierArch::kColumnBypass,
                                         MultiplierArch::kRowBypass,
                                         MultiplierArch::kWallaceTree),
                       ::testing::Values(2, 3, 4, 5, 8, 12, 16, 32)),
    [](const ::testing::TestParamInfo<ArchWidth>& info) {
      return std::string(arch_name(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(MultiplierTest, BypassingCostsGatesAndTransistors) {
  const auto am = build_array_multiplier(16);
  const auto cb = build_column_bypass_multiplier(16);
  const auto rb = build_row_bypass_multiplier(16);
  EXPECT_LT(am.netlist.transistor_count(), cb.netlist.transistor_count());
  EXPECT_LT(cb.netlist.transistor_count(), rb.netlist.transistor_count());
  // Bypass structures exist where expected.
  const auto cb_counts = cb.netlist.gate_count_by_kind();
  EXPECT_GT(cb_counts[static_cast<std::size_t>(CellKind::kMux2)], 0u);
  EXPECT_GT(cb_counts[static_cast<std::size_t>(CellKind::kTbuf)], 0u);
  const auto am_counts = am.netlist.gate_count_by_kind();
  EXPECT_EQ(am_counts[static_cast<std::size_t>(CellKind::kMux2)], 0u);
  EXPECT_EQ(am_counts[static_cast<std::size_t>(CellKind::kTbuf)], 0u);
}

TEST(MultiplierTest, BypassingLengthensCriticalPath) {
  const TechLibrary& t = default_tech_library();
  const double am = critical_path_ps(build_array_multiplier(16), t);
  const double cb = critical_path_ps(build_column_bypass_multiplier(16), t);
  const double rb = critical_path_ps(build_row_bypass_multiplier(16), t);
  EXPECT_GT(cb, am);
  EXPECT_GT(rb, am);
}

TEST(MultiplierTest, ColumnBypassDelayFallsWithMultiplicandZeros) {
  // The paper's Fig. 6 premise: more zeros in the multiplicand => shorter
  // paths in the column-bypassing multiplier (on average).
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const TechLibrary& t = default_tech_library();
  double means[3] = {0, 0, 0};
  const int zero_counts[3] = {4, 8, 12};
  for (int zc = 0; zc < 3; ++zc) {
    MultiplierSim sim(m, t);
    Rng rng(100 + zc);
    const auto pats =
        patterns_with_multiplicand_zeros(rng, 16, zero_counts[zc], 300);
    for (const auto& p : pats) {
      means[zc] += sim.apply(p.a, p.b).output_settle_ps;
    }
    means[zc] /= 300.0;
  }
  EXPECT_GT(means[0], means[1]);
  EXPECT_GT(means[1], means[2]);
}

TEST(MultiplierTest, RowBypassDelayFallsWithMultiplicatorZeros) {
  const MultiplierNetlist m = build_row_bypass_multiplier(16);
  const TechLibrary& t = default_tech_library();
  double mean_few = 0.0, mean_many = 0.0;
  {
    MultiplierSim sim(m, t);
    Rng rng(200);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t b = operand_with_zero_count(rng, 16, 4);
      mean_few += sim.apply(rng.next_bits(16), b).output_settle_ps;
    }
  }
  {
    MultiplierSim sim(m, t);
    Rng rng(201);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t b = operand_with_zero_count(rng, 16, 12);
      mean_many += sim.apply(rng.next_bits(16), b).output_settle_ps;
    }
  }
  EXPECT_GT(mean_few, mean_many);
}

TEST(MultiplierTest, BypassingReducesSwitchedCapacitanceOnSparseOperands) {
  // The original design goal of [22]/[23]: fewer active adders => less
  // switching. Compare AM and CB on multiplicands full of zeros.
  const TechLibrary& t = default_tech_library();
  const MultiplierNetlist am = build_array_multiplier(16);
  const MultiplierNetlist cb = build_column_bypass_multiplier(16);
  MultiplierSim am_sim(am, t), cb_sim(cb, t);
  Rng rng(300);
  double am_cap = 0.0, cb_cap = 0.0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = operand_with_zero_count(rng, 16, 12);
    const std::uint64_t b = rng.next_bits(16);
    am_cap += am_sim.apply(a, b).switched_cap_ff;
    cb_cap += cb_sim.apply(a, b).switched_cap_ff;
  }
  EXPECT_LT(cb_cap, am_cap);
}

TEST(MultiplierTest, JudgingOperandConvention) {
  EXPECT_TRUE(judges_on_multiplicand(MultiplierArch::kArray));
  EXPECT_TRUE(judges_on_multiplicand(MultiplierArch::kColumnBypass));
  EXPECT_FALSE(judges_on_multiplicand(MultiplierArch::kRowBypass));
  EXPECT_TRUE(judges_on_multiplicand(MultiplierArch::kWallaceTree));
}

TEST(MultiplierTest, WallaceTreeIsShallowest) {
  // The O(log n) reduction tree must beat the O(n) array in depth.
  const TechLibrary& t = default_tech_library();
  const double am = critical_path_ps(build_array_multiplier(16), t);
  const double wt = critical_path_ps(build_wallace_tree_multiplier(16), t);
  EXPECT_LT(wt, am);
}

TEST(MultiplierTest, WallaceDelayBarelyCorrelatesWithZeros) {
  // The reason zero-count judging needs a *bypassing* substrate: on a
  // Wallace tree, multiplicand zeros shift the delay distribution far less
  // than on the column-bypassing multiplier (relative to each design's
  // dynamic range).
  const TechLibrary& t = default_tech_library();
  const MultiplierNetlist wt = build_wallace_tree_multiplier(16);
  const MultiplierNetlist cb = build_column_bypass_multiplier(16);
  const auto mean_delay = [&](const MultiplierNetlist& m, int zeros,
                              std::uint64_t seed) {
    MultiplierSim sim(m, t);
    Rng rng(seed);
    double sum = 0.0;
    for (int i = 0; i < 200; ++i) {
      sum += sim.apply(operand_with_zero_count(rng, 16, zeros),
                       rng.next_bits(16))
                 .output_settle_ps;
    }
    return sum / 200.0;
  };
  const double wt_shift = mean_delay(wt, 4, 1) / mean_delay(wt, 12, 2);
  const double cb_shift = mean_delay(cb, 4, 3) / mean_delay(cb, 12, 4);
  EXPECT_GT(cb_shift, wt_shift);
}

TEST(MultiplierTest, WidthValidation) {
  EXPECT_THROW(build_array_multiplier(1), std::invalid_argument);
  EXPECT_THROW(build_column_bypass_multiplier(33), std::invalid_argument);
  EXPECT_THROW(build_row_bypass_multiplier(0), std::invalid_argument);
  EXPECT_THROW(reference_multiply(1, 1, 0), std::invalid_argument);
}

TEST(MultiplierTest, ArchNames) {
  EXPECT_STREQ(arch_name(MultiplierArch::kArray), "AM");
  EXPECT_STREQ(arch_name(MultiplierArch::kColumnBypass), "CB");
  EXPECT_STREQ(arch_name(MultiplierArch::kRowBypass), "RB");
}

}  // namespace
}  // namespace agingsim
