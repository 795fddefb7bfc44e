#include "src/aging/scenario.hpp"

#include <gtest/gtest.h>

#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"

namespace agingsim {
namespace {

class ScenarioFixture : public ::testing::Test {
 protected:
  ScenarioFixture()
      : mult_(build_column_bypass_multiplier(8)),
        tech_(default_tech_library()),
        scenario_(mult_.netlist, tech_, BtiModel::calibrated(tech_), 42,
                  500) {}

  MultiplierNetlist mult_;
  const TechLibrary& tech_;
  AgingScenario scenario_;
};

TEST_F(ScenarioFixture, FreshCircuitHasUnityScales) {
  const auto scales = scenario_.delay_scales_at(0.0);
  ASSERT_EQ(scales.size(), mult_.netlist.num_gates());
  for (double s : scales) EXPECT_DOUBLE_EQ(s, 1.0);
  EXPECT_DOUBLE_EQ(scenario_.mean_dvth_at(0.0), 0.0);
}

TEST_F(ScenarioFixture, ScalesAreAboveOneAndMonotoneInYears) {
  const auto y1 = scenario_.delay_scales_at(1.0);
  const auto y7 = scenario_.delay_scales_at(7.0);
  for (std::size_t g = 0; g < y1.size(); ++g) {
    EXPECT_GE(y1[g], 1.0);
    EXPECT_GE(y7[g], y1[g]);
  }
  EXPECT_GT(scenario_.mean_dvth_at(7.0), scenario_.mean_dvth_at(1.0));
}

TEST_F(ScenarioFixture, SevenYearCriticalPathDegradationNearPaperValue) {
  const double fresh = critical_path_ps(mult_, tech_);
  const auto scales = scenario_.delay_scales_at(7.0);
  const double aged = critical_path_ps(mult_, tech_, scales);
  // The paper's Fig. 7 reports ~13% over 7 years; the calibration targets a
  // *device* at S=0.5, and per-gate stress spread moves the circuit-level
  // number a little.
  EXPECT_GT(aged / fresh, 1.08);
  EXPECT_LT(aged / fresh, 1.18);
}

TEST_F(ScenarioFixture, StressProfileIsExposed) {
  EXPECT_EQ(scenario_.stress().pmos_stress.size(), mult_.netlist.num_gates());
  EXPECT_GT(scenario_.model().kdc(), 0.0);
}

}  // namespace
}  // namespace agingsim
