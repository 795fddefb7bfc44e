#include "src/core/calibration.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"

namespace agingsim {
namespace {

TEST(CalibrationTest, Cb16CriticalPathHitsTarget) {
  const TechLibrary tech = calibrated_tech_library(1880.0);
  const auto cb16 = build_column_bypass_multiplier(16);
  EXPECT_NEAR(critical_path_ps(cb16, tech), 1880.0, 1e-6);
}

TEST(CalibrationTest, ScaleIsConsistent) {
  const double s = calibration_scale(1880.0);
  EXPECT_GT(s, 0.0);
  EXPECT_NEAR(calibration_scale(3760.0), 2.0 * s, 1e-9);
}

TEST(CalibrationTest, ArchitectureOrderingSurvivesCalibration) {
  const TechLibrary tech = calibrated_tech_library();
  const double am = critical_path_ps(build_array_multiplier(16), tech);
  const double cb = critical_path_ps(build_column_bypass_multiplier(16), tech);
  EXPECT_LT(am, cb);  // the AM is the fastest fixed design, as in Fig. 5
}

TEST(CalibrationTest, RejectsBadTarget) {
  EXPECT_THROW(calibrated_tech_library(0.0), std::invalid_argument);
  EXPECT_THROW(calibration_scale(-5.0), std::invalid_argument);
}

}  // namespace
}  // namespace agingsim
