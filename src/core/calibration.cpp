#include "src/core/calibration.hpp"

#include <stdexcept>

#include "src/core/vl_multiplier.hpp"

namespace agingsim {
namespace {

double uncalibrated_cb16_ps() {
  static const double crit = [] {
    const MultiplierNetlist cb16 = build_column_bypass_multiplier(16);
    return critical_path_ps(cb16, default_tech_library());
  }();
  return crit;
}

}  // namespace

double calibration_scale(double target_cb16_ps) {
  if (!(target_cb16_ps > 0.0)) {
    throw std::invalid_argument("calibration_scale: target must be > 0");
  }
  return target_cb16_ps / uncalibrated_cb16_ps();
}

TechLibrary calibrated_tech_library(double target_cb16_ps) {
  return default_tech_library().scaled(calibration_scale(target_cb16_ps));
}

}  // namespace agingsim
