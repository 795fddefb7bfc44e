#include "src/aging/scenario.hpp"

#include <stdexcept>
#include <utility>

namespace agingsim {

AgingScenario::AgingScenario(const Netlist& netlist, const TechLibrary& tech,
                             BtiModel model, std::uint64_t seed,
                             std::size_t stress_patterns)
    : netlist_(&netlist),
      tech_(&tech),
      model_(model),
      stress_(estimate_stress(netlist, seed, stress_patterns)) {}

AgingScenario::AgingScenario(const Netlist& netlist, const TechLibrary& tech,
                             BtiModel model, StressProfile profile)
    : netlist_(&netlist),
      tech_(&tech),
      model_(model),
      stress_(std::move(profile)) {
  if (stress_.pmos_stress.size() != netlist.num_gates()) {
    throw std::invalid_argument(
        "AgingScenario: stress profile does not match the netlist");
  }
}

std::vector<double> AgingScenario::delay_scales_at(double years) const {
  const double t = years_to_seconds(years);
  std::vector<double> scales(netlist_->num_gates(), 1.0);
  if (years <= 0.0) return scales;
  for (GateId g = 0; g < netlist_->num_gates(); ++g) {
    const double dv_p = model_.delta_vth(stress_.pmos_stress[g], t);
    const double dv_n = model_.delta_vth(stress_.nmos_stress[g], t);
    scales[g] = 0.5 * (delay_scale_from_dvth(*tech_, dv_p) +
                       delay_scale_from_dvth(*tech_, dv_n));
  }
  return scales;
}

double AgingScenario::mean_dvth_at(double years) const {
  if (years <= 0.0 || netlist_->num_gates() == 0) return 0.0;
  const double t = years_to_seconds(years);
  double sum = 0.0;
  for (GateId g = 0; g < netlist_->num_gates(); ++g) {
    sum += 0.5 * (model_.delta_vth(stress_.pmos_stress[g], t) +
                  model_.delta_vth(stress_.nmos_stress[g], t));
  }
  return sum / static_cast<double>(netlist_->num_gates());
}

}  // namespace agingsim
