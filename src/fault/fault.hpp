#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/netlist/logic.hpp"
#include "src/netlist/netlist.hpp"

namespace agingsim {

/// The fault classes the resilience subsystem can inject (docs/FAULTS.md).
///
/// The paper's architecture is sold on *tolerating* aging-induced timing
/// failures; these overlays let the simulator measure that claim instead of
/// assuming it: which faults Razor detects, which the judging logic masks,
/// and which silently corrupt a committed product (SDC).
enum class FaultKind : std::uint8_t {
  /// Gate output permanently forced to logic 0 (manufacturing defect,
  /// hard breakdown). Functionally wrong but timing-clean: invisible to
  /// Razor — the canonical SDC source.
  kStuckAt0,
  /// Gate output permanently forced to logic 1.
  kStuckAt1,
  /// Single-event transient: the gate's output value is inverted for
  /// exactly one operation (particle strike on a combinational node that
  /// gets latched).
  kTransient,
  /// Delay outlier: one gate's propagation delay is multiplied by a large
  /// factor, modeling a worst-case Vth-variation / NBTI-outlier device
  /// (Heidary & Joardar: variation tails, not mean drift, dominate
  /// multiplier failure). Timing-visible: this is what Razor is for.
  kDelayOutlier,
};

const char* fault_kind_name(FaultKind kind) noexcept;

/// The kind a CLI flag or a request names: stuck0, stuck1, transient or
/// delay; nullopt for anything else.
std::optional<FaultKind> parse_fault_kind(std::string_view name);

/// One injected fault, anchored to the output of a gate.
struct FaultSite {
  FaultKind kind = FaultKind::kStuckAt0;
  GateId gate = 0;
  /// kDelayOutlier: multiplier applied on top of the aging overlay (> 0).
  double delay_factor = 1.0;
  /// kTransient: 0-based step() index at which the flip fires.
  std::int64_t cycle = -1;
};

/// A set of faults applied *on top of* a TimingSim without mutating the
/// shared netlist: the overlay is consulted during evaluation, so one
/// netlist can serve a whole campaign of fault trials concurrently.
///
/// Install with `TimingSim::set_fault_overlay(&overlay)`; the overlay must
/// outlive the simulator's use of it. Lookups on the hot path are O(1)
/// dense-vector reads.
class FaultOverlay {
 public:
  /// `num_gates` must match the netlist the overlay will be applied to.
  explicit FaultOverlay(std::size_t num_gates);

  /// Adds a fault. Throws std::invalid_argument on an out-of-range gate, a
  /// non-positive delay factor, or a negative transient cycle. Multiple
  /// faults may target the same gate (the last stuck-at wins).
  void add(const FaultSite& fault);

  std::size_t num_gates() const noexcept { return stuck_.size(); }
  std::size_t num_faults() const noexcept { return faults_.size(); }
  const std::vector<FaultSite>& faults() const noexcept { return faults_; }

  /// kX when the gate is not stuck; the forced value otherwise.
  Logic stuck_value(GateId g) const noexcept {
    const std::uint8_t s = stuck_[g];
    return s == 0 ? Logic::kX : (s == 1 ? Logic::kZero : Logic::kOne);
  }

  /// Delay multiplier for the gate (1.0 when unaffected).
  double delay_factor(GateId g) const noexcept { return delay_factor_[g]; }
  bool has_delay_faults() const noexcept { return has_delay_faults_; }

  /// True when a transient on gate `g` fires at step `cycle`.
  bool transient_fires(GateId g, std::int64_t cycle) const noexcept;
  bool has_transients() const noexcept { return !transients_.empty(); }

  /// True when any transient (on any gate) is armed for exactly `cycle`.
  /// The sparse timing kernel falls back to a dense sweep on such cycles
  /// (and the one after, which un-flips the struck gate), so transient
  /// semantics never depend on worklist reachability.
  bool transient_fires_on(std::int64_t cycle) const noexcept {
    for (const FaultSite& t : transients_) {
      if (t.cycle == cycle) return true;
    }
    return false;
  }

  /// True when any fault can affect step `cycle`: persistent faults
  /// (stuck-at, delay outlier) are active on every cycle, transients only
  /// on their armed cycle. Drives the OpTrace::fault_active flag.
  bool active_at(std::int64_t cycle) const noexcept;

 private:
  std::vector<FaultSite> faults_;
  std::vector<std::uint8_t> stuck_;       // 0 = none, 1 = s-a-0, 2 = s-a-1
  std::vector<double> delay_factor_;      // per gate, default 1.0
  std::vector<FaultSite> transients_;     // usually 0 or 1 entries
  std::size_t persistent_faults_ = 0;
  bool has_delay_faults_ = false;
};

}  // namespace agingsim
