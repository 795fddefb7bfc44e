#include "src/serve/admission.hpp"

#include <algorithm>
#include <cmath>

namespace agingsim::serve {

int degradation_tier(const AdmissionConfig& config, std::size_t depth) {
  if (config.capacity == 0) return 2;
  const double occupancy =
      static_cast<double>(depth) / static_cast<double>(config.capacity);
  if (occupancy >= kShedBatchFrac) return 2;
  if (occupancy >= kShedRefillFrac) return 1;
  return 0;
}

AdmissionDecision admit(const AdmissionConfig& config, Priority priority,
                        bool needs_cache_refill, std::size_t depth,
                        double avg_service_ms) {
  // The hint estimates how long the current backlog takes to drain at the
  // observed per-request service time; with no history yet, the minimum
  // stands. Clients treat it as advisory backoff, not a reservation.
  const auto hint = [&] {
    const double drain_ms =
        static_cast<double>(depth) * std::max(avg_service_ms, 0.0);
    const auto ms = static_cast<std::int64_t>(std::ceil(drain_ms));
    return std::clamp(ms, kRetryAfterMinMs, kRetryAfterMaxMs);
  };
  const auto reject = [&](ErrorCode reason) {
    return AdmissionDecision{.admitted = false,
                             .reason = reason,
                             .retry_after_ms = hint()};
  };
  if (priority == Priority::kControl) {
    // Control requests are answered inline and never reach the queue; an
    // accidental push must not be sheddable.
    return AdmissionDecision{.admitted = true};
  }
  if (depth >= config.capacity) return reject(ErrorCode::kOverloaded);
  const int tier = degradation_tier(config, depth);
  if (tier >= 2 && priority == Priority::kBatch) {
    return reject(ErrorCode::kShedBatch);
  }
  if (tier >= 1 && needs_cache_refill) {
    return reject(ErrorCode::kShedRefill);
  }
  return AdmissionDecision{.admitted = true};
}

}  // namespace agingsim::serve
