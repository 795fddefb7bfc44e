#include "src/aging/variation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"

namespace agingsim {
namespace {

TEST(VariationTest, ZeroSigmaIsIdentity) {
  const auto m = build_array_multiplier(8);
  const auto scales = process_variation_scales(m.netlist, 0.0, 1);
  ASSERT_EQ(scales.size(), m.netlist.num_gates());
  for (double s : scales) EXPECT_DOUBLE_EQ(s, 1.0);
}

TEST(VariationTest, DeterministicPerSeed) {
  const auto m = build_array_multiplier(8);
  const auto a = process_variation_scales(m.netlist, 0.05, 7);
  const auto b = process_variation_scales(m.netlist, 0.05, 7);
  const auto c = process_variation_scales(m.netlist, 0.05, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(VariationTest, LognormalStatistics) {
  const auto m = build_array_multiplier(16);  // ~1.4k gates: decent sample
  const double sigma = 0.08;
  const auto scales = process_variation_scales(m.netlist, sigma, 3);
  double mean_log = 0.0, var_log = 0.0;
  for (double s : scales) mean_log += std::log(s);
  mean_log /= static_cast<double>(scales.size());
  for (double s : scales) {
    const double d = std::log(s) - mean_log;
    var_log += d * d;
  }
  var_log /= static_cast<double>(scales.size());
  EXPECT_NEAR(mean_log, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(var_log), sigma, 0.01);
  for (double s : scales) EXPECT_GT(s, 0.0);
}

TEST(VariationTest, VariationWidensCriticalPathSpread) {
  // Monte-Carlo corner study: with variation the worst-die critical path
  // exceeds nominal — the guard-band a fixed design must pay.
  const auto m = build_array_multiplier(8);
  const TechLibrary& t = default_tech_library();
  const double nominal = critical_path_ps(m, t);
  double worst = 0.0;
  for (std::uint64_t die = 0; die < 20; ++die) {
    const auto scales = process_variation_scales(m.netlist, 0.08, die);
    worst = std::max(worst, critical_path_ps(m, t, scales));
  }
  EXPECT_GT(worst, nominal);
}

TEST(VariationTest, CombineScalesMultipliesElementwise) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 0.5, 1.0};
  const auto c = combine_scales({a, b});
  EXPECT_EQ(c, (std::vector<double>{2.0, 1.0, 3.0}));
  // Empty overlays are identity.
  EXPECT_EQ(combine_scales({{}, a, {}}), a);
  EXPECT_TRUE(combine_scales({}).empty());
  const std::vector<double> wrong = {1.0};
  EXPECT_THROW(combine_scales({a, wrong}), std::invalid_argument);
}

TEST(VariationTest, RejectsNegativeSigma) {
  const auto m = build_array_multiplier(4);
  EXPECT_THROW(process_variation_scales(m.netlist, -0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(correlated_variation_scales(m.netlist, {.sigma_grid = -0.1}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      correlated_variation_scales(m.netlist, {.grid_levels = 0}, 1),
      std::invalid_argument);
  EXPECT_THROW(stochastic_aging_scales(std::vector<double>{1.1}, -0.1, 1),
               std::invalid_argument);
}

TEST(VariationTest, CorrelatedScalesMedianNearOne) {
  // Every lognormal component has log-mean 0, so the nominal netlist is the
  // median die. Kill the die-to-die shift (the one term shared by all
  // gates) and the per-gate log-mean must sit near 0.
  const auto m = build_array_multiplier(16);
  const auto scales =
      correlated_variation_scales(m.netlist, VariationModel{}, 11, 0.0);
  ASSERT_EQ(scales.size(), m.netlist.num_gates());
  double mean_log = 0.0;
  for (double s : scales) {
    EXPECT_GT(s, 0.0);
    mean_log += std::log(s);
  }
  mean_log /= static_cast<double>(scales.size());
  EXPECT_NEAR(mean_log, 0.0, 0.05);
}

TEST(VariationTest, DieZOverrideShiftsEveryGateUniformly) {
  // Same seed, different die_z: the grid + random fields are unchanged
  // (the overridden draw is still consumed), so each gate moves by exactly
  // exp(sigma_die * dz).
  const auto m = build_array_multiplier(8);
  const VariationModel model;
  const auto base = correlated_variation_scales(m.netlist, model, 5, 0.0);
  const auto slow = correlated_variation_scales(m.netlist, model, 5, 2.0);
  const double expected = std::exp(model.sigma_die * 2.0);
  for (std::size_t g = 0; g < base.size(); ++g) {
    EXPECT_NEAR(slow[g] / base[g], expected, 1e-12);
  }
}

TEST(VariationTest, StochasticAgingPreservesFreshGates) {
  // Jitter multiplies the degradation (base - 1), so a fresh overlay is a
  // fixed point and an aged gate never rejuvenates below 1.
  const std::vector<double> fresh(64, 1.0);
  EXPECT_EQ(stochastic_aging_scales(fresh, 0.25, 9), fresh);
  std::vector<double> aged(64);
  for (std::size_t g = 0; g < aged.size(); ++g) {
    aged[g] = 1.0 + 0.001 * static_cast<double>(g + 1);
  }
  EXPECT_EQ(stochastic_aging_scales(aged, 0.0, 9), aged);
  const auto jittered = stochastic_aging_scales(aged, 0.25, 9);
  for (std::size_t g = 0; g < aged.size(); ++g) {
    EXPECT_GT(jittered[g], 1.0);
    EXPECT_NE(jittered[g], aged[g]);
  }
}

TEST(VariationTest, StochasticAgingSeedIsAPerDieTrait) {
  // One seed = one die: doubling every gate's degradation doubles the
  // jittered degradation exactly, so a fast-aging die at year 1 is the
  // same fast-aging die at year 7.
  std::vector<double> year1(32), year7(32);
  for (std::size_t g = 0; g < year1.size(); ++g) {
    year1[g] = 1.0 + 0.01 * static_cast<double>(g + 1);
    year7[g] = 1.0 + 0.02 * static_cast<double>(g + 1);
  }
  const auto j1 = stochastic_aging_scales(year1, 0.3, 77);
  const auto j7 = stochastic_aging_scales(year7, 0.3, 77);
  for (std::size_t g = 0; g < j1.size(); ++g) {
    EXPECT_NEAR((j7[g] - 1.0) / (j1[g] - 1.0), 2.0, 1e-9);
  }
}

TEST(VariationTest, AccumulateScalesInPlace) {
  std::vector<double> acc;
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 0.5, 1.0};
  accumulate_scales(acc, a);  // empty acc adopts the overlay
  EXPECT_EQ(acc, a);
  accumulate_scales(acc, b);
  EXPECT_EQ(acc, (std::vector<double>{2.0, 1.0, 3.0}));
  accumulate_scales(acc, {});  // empty overlay is identity
  EXPECT_EQ(acc, (std::vector<double>{2.0, 1.0, 3.0}));
  const std::vector<double> wrong = {1.0};
  EXPECT_THROW(accumulate_scales(acc, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace agingsim
