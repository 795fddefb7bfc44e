#include "src/fault/fault.hpp"

#include <stdexcept>
#include <string>

namespace agingsim {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kStuckAt0: return "stuck-at-0";
    case FaultKind::kStuckAt1: return "stuck-at-1";
    case FaultKind::kTransient: return "transient";
    case FaultKind::kDelayOutlier: return "delay-outlier";
  }
  return "?";
}

std::optional<FaultKind> parse_fault_kind(std::string_view name) {
  if (name == "stuck0") return FaultKind::kStuckAt0;
  if (name == "stuck1") return FaultKind::kStuckAt1;
  if (name == "transient") return FaultKind::kTransient;
  if (name == "delay") return FaultKind::kDelayOutlier;
  return std::nullopt;
}

FaultOverlay::FaultOverlay(std::size_t num_gates)
    : stuck_(num_gates, 0), delay_factor_(num_gates, 1.0) {}

void FaultOverlay::add(const FaultSite& fault) {
  if (fault.gate >= stuck_.size()) {
    throw std::invalid_argument("FaultOverlay::add: gate " +
                                std::to_string(fault.gate) +
                                " out of range (netlist has " +
                                std::to_string(stuck_.size()) + " gates)");
  }
  switch (fault.kind) {
    case FaultKind::kStuckAt0:
      stuck_[fault.gate] = 1;
      ++persistent_faults_;
      break;
    case FaultKind::kStuckAt1:
      stuck_[fault.gate] = 2;
      ++persistent_faults_;
      break;
    case FaultKind::kTransient:
      if (fault.cycle < 0) {
        throw std::invalid_argument(
            "FaultOverlay::add: transient needs a cycle >= 0");
      }
      transients_.push_back(fault);
      break;
    case FaultKind::kDelayOutlier:
      if (!(fault.delay_factor > 0.0)) {
        throw std::invalid_argument(
            "FaultOverlay::add: delay factor must be > 0");
      }
      delay_factor_[fault.gate] *= fault.delay_factor;
      has_delay_faults_ = true;
      ++persistent_faults_;
      break;
  }
  faults_.push_back(fault);
}

bool FaultOverlay::transient_fires(GateId g, std::int64_t cycle) const noexcept {
  for (const FaultSite& t : transients_) {
    if (t.gate == g && t.cycle == cycle) return true;
  }
  return false;
}

bool FaultOverlay::active_at(std::int64_t cycle) const noexcept {
  if (persistent_faults_ > 0) return true;
  for (const FaultSite& t : transients_) {
    if (t.cycle == cycle) return true;
  }
  return false;
}

}  // namespace agingsim
