#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/razor.hpp"
#include "src/lint/diagnostic.hpp"
#include "src/sim/sta.hpp"

namespace agingsim {
class AgingScenario;
struct MultiplierNetlist;
}  // namespace agingsim

namespace agingsim::lint {

/// Timing-safety context for the timing rule family. The rules prove the
/// paper's architectural contract over the *static* worst case: every path
/// that can exceed one (aged) clock period must end in a Razor-protected
/// flop, and the whole aged critical path must fit inside the AHL's
/// hold-cycle budget across the scenario sweep.
struct TimingContext {
  /// Cell delays the STA runs with. Required for any timing rule to fire.
  const TechLibrary* tech = nullptr;
  /// Aging scenario supplying per-gate delay multipliers per year;
  /// nullptr lints fresh silicon only.
  const AgingScenario* aging = nullptr;
  /// Years the hold-count rule sweeps (the paper's 7-year horizon).
  std::vector<double> sweep_years{0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  /// Clock period the design is linted at. <= 0 skips the timing rules.
  double period_ps = 0.0;
  /// Maximum cycles the AHL can hold an operation (1- or 2-cycle issue in
  /// the paper's Fig. 12 design, so 2).
  int max_hold_cycles = 2;
  /// Razor bank configuration (shadow-window width drives detectability).
  RazorConfig razor{};
  /// Per-primary-output Razor protection flags; empty means the full output
  /// bank is Razor-protected (the paper's Fig. 8 architecture). A 0 entry
  /// models a severed Razor tap on that output.
  std::vector<std::uint8_t> razor_protected{};
  /// Enables the min-path (hold) side: timing.hold-window proves every
  /// Razor-protected output's earliest arrival clears the shadow sampling
  /// window at every corner. Off by default because a bare combinational
  /// multiplier genuinely has short paths (p[0] is one AND gate) — the rule
  /// is meant to be run together with the hold-repair pass.
  bool check_hold = false;
  /// Extra guard band (ps) the min arrival must clear beyond the shadow
  /// window (clock skew / latch aperture allowance).
  double hold_margin_ps = 0.0;

  bool output_protected(std::size_t output_index) const noexcept {
    return razor_protected.empty() || (output_index < razor_protected.size() &&
                                       razor_protected[output_index] != 0);
  }
};

/// Options for the consistency rule family (netlist-vs-golden-function
/// equivalence on a seeded vector set).
struct ConsistencyContext {
  std::size_t vectors = 256;
  std::uint64_t seed = 0x11A7C0DEULL;
};

/// The multi-corner min/max STA that the timing rules share, so setup and
/// hold verdicts come from identical arrival planes. lint::run makes one,
/// empty, per call, and the first timing rule that reads it fills it. An
/// analysis that throws leaves it empty, so each rule that reaches it
/// throws the same error and reports it under its own id.
using SharedSta = std::optional<std::vector<CornerTiming>>;

/// Everything a rule may look at. Only `netlist` is mandatory; rules whose
/// prerequisites are missing report an info diagnostic saying why they did
/// not run instead of failing.
struct LintContext {
  const Netlist* netlist = nullptr;
  /// Generator metadata (arch, width, operand layout). Enables the
  /// consistency rules.
  const MultiplierNetlist* multiplier = nullptr;
  /// Enables the timing-safety rules.
  const TimingContext* timing = nullptr;
  ConsistencyContext consistency{};
  /// Set by lint::run, one per call; the timing rules read it.
  SharedSta* sta = nullptr;
};

enum class RuleCategory { kStructural = 0, kTiming = 1, kConsistency = 2 };

std::string_view category_name(RuleCategory category) noexcept;

/// One static-analysis rule: a row of its family's constant table. `run`
/// inspects the context and appends any findings to `out`, each under `id`.
/// Rules are stateless and must never crash on a corrupted netlist —
/// flagging the corruption is their job (the lint fuzz suite feeds them
/// deliberately broken structures).
struct Rule {
  /// Stable id, e.g. "structural.pin-arity"; used in reports and filters.
  std::string_view id;
  RuleCategory category = RuleCategory::kStructural;
  /// One-line human description of what the rule proves or flags.
  std::string_view description;
  void (*run)(const LintContext& ctx, std::string_view id,
              std::vector<Diagnostic>& out) = nullptr;
};

/// The built-in rule families, one table each. Table order is execution
/// (and report) order.
std::span<const Rule> structural_rules() noexcept;
std::span<const Rule> timing_rules() noexcept;
std::span<const Rule> consistency_rules() noexcept;

/// Every built-in rule: the structural, then the timing, then the
/// consistency rows. Ids are unique.
std::span<const Rule> all_rules();

/// The built-in rule with this id; nullptr when there is none.
const Rule* find_rule(std::string_view id);

/// The STA corners a TimingContext describes: one per sweep year, each
/// carrying that year's per-gate aging overlay (or no overlay when the
/// context has no scenario — a single "fresh" corner). Shared by the timing
/// rule family and the hold-repair pass so both prove the same corners.
/// Throws std::invalid_argument when an overlay is not sized one-per-gate.
std::vector<StaCorner> aging_corners(const Netlist& netlist,
                                     const TimingContext& timing);

}  // namespace agingsim::lint
