#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/lint/rule.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/sta.hpp"

namespace agingsim::lint {

/// The logic-equivalence proof `repair_hold` runs after repair (repaired
/// vs. original netlist, exact per-lane value comparison through the batch
/// timing kernel); 0 vectors skips it.
struct HoldRepairConfig {
  std::size_t equiv_vectors = 256;
  std::uint64_t equiv_seed = 0x401DFACEULL;
};

/// Per-primary-output before/after summary of one repair run. Arrival
/// numbers are the worst over all corners (min plane: smallest earliest
/// arrival; max plane: largest latest arrival).
struct OutputHoldReport {
  std::string name;
  std::size_t output_index = 0;
  bool razor_protected = false;
  /// Buffers inserted while this output was the repair target (endpoint
  /// padding plus upstream short-path insertions attributed to it).
  int buffers_inserted = 0;
  double min_before_ps = 0.0;
  double max_before_ps = 0.0;
  double min_after_ps = 0.0;
  double max_after_ps = 0.0;
  bool hold_ok_after = false;
};

/// Result of the post-repair logic-equivalence check.
struct EquivalenceSummary {
  bool checked = false;
  std::size_t vectors = 0;
  std::size_t mismatches = 0;
  bool ok() const noexcept { return checked && mismatches == 0; }
};

/// Everything `repair_hold` did and proved.
struct HoldRepairResult {
  double period_ps = 0.0;
  /// Shadow sampling window W = shadow_window_cycles x T_clk.
  double window_ps = 0.0;
  /// W + hold_margin_ps: what every protected output's min arrival must
  /// clear at every corner.
  double required_min_ps = 0.0;
  int passes = 0;
  int buffers_inserted = 0;
  /// Min side clean after repair: every Razor-protected output's earliest
  /// arrival clears `required_min_ps` at every corner.
  bool hold_clean = false;
  /// Setup side still clean after repair: critical path within the AHL hold
  /// budget, protected outputs within the shadow window, and no previously
  /// sub-period unprotected output pushed past T_clk.
  bool max_clean = false;
  std::vector<OutputHoldReport> outputs;
  EquivalenceSummary equivalence;

  /// Repair succeeded: both timing sides clean and (when checked) the
  /// repaired netlist is logic-equivalent to the original.
  bool clean() const noexcept {
    return hold_clean && max_clean &&
           (!equivalence.checked || equivalence.mismatches == 0);
  }
};

/// Automatic hold repair: inserts delay buffers (via
/// NetlistSurgeon::insert_buffer / insert_output_buffer) until every
/// Razor-protected output's *min-corner* arrival clears the shadow sampling
/// window at every aging corner of `timing`, without breaking the setup
/// side (AHL hold budget, shadow-window ceiling, razor-coverage status of
/// unprotected outputs).
///
/// Strategy per pass, driven by a fresh min/max multi-corner STA:
///  1. Violating outputs whose max-side headroom fits the whole deficit are
///     fixed by appending a buffer chain at the endpoint (shifts min and max
///     equally — only feasible when span = max - min leaves room).
///  2. Otherwise one upstream insertion is placed on the violating output's
///     min-critical path, at the edge with the largest worst-corner setup
///     slack (computed from `StaEngine::downstream` bounds), so the shortest
///     path is lengthened without touching the setup-critical path.
/// Passes repeat until clean, the pass budget runs out, or no legal
/// insertion exists (the result then reports `hold_clean == false` with the
/// honest per-output numbers).
///
/// `timing` supplies period, shadow window, margin, protection flags and the
/// aging sweep (via `aging_corners`); `timing.check_hold` need not be set.
/// Throws std::invalid_argument on a structurally invalid netlist, a
/// non-positive period, or mis-sized aging overlays.
HoldRepairResult repair_hold(Netlist& netlist, const TechLibrary& tech,
                             const TimingContext& timing,
                             const HoldRepairConfig& config = {});

/// Exact logic-equivalence check between two netlists with identical
/// input/output interfaces: drives both through the 64-lane batch timing
/// kernel on `vectors` seeded patterns (the first is all-ones, flushing
/// power-up X through tri-state keeper structures) and compares every
/// primary output's settled Logic value lane by lane — X-safe, no
/// output_bits packing. Throws std::invalid_argument when the interfaces
/// differ.
EquivalenceSummary check_logic_equivalence(const Netlist& a, const Netlist& b,
                                           const TechLibrary& tech,
                                           std::size_t vectors,
                                           std::uint64_t seed);

}  // namespace agingsim::lint
