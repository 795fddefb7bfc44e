#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/aging/scenario.hpp"
#include "src/lint/rule.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sim/sta.hpp"

namespace agingsim::lint {
namespace {

std::string fmt_ps(double ps) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f ps", ps);
  return buf;
}

std::string fmt_years(double years) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", years);
  return buf;
}

/// Shared preconditions of the timing rules. Emits an info diagnostic
/// naming the missing piece so the report records *why* a rule did not run.
bool timing_ready(const LintContext& ctx, std::string_view rule_id,
                  std::vector<Diagnostic>& out) {
  const char* missing = nullptr;
  if (ctx.timing == nullptr) {
    missing = "no timing context";
  } else if (ctx.timing->tech == nullptr) {
    missing = "no technology library";
  } else if (ctx.timing->period_ps <= 0.0) {
    missing = "no clock period";
  } else if (ctx.netlist->num_outputs() == 0) {
    missing = "netlist has no primary outputs";
  }
  if (missing != nullptr) {
    out.push_back(Diagnostic{Severity::kInfo, std::string(rule_id),
                             std::string("skipped: ") + missing, kNoGate,
                             kInvalidNet});
    return false;
  }
  return true;
}

/// One multi-corner min/max pass over the whole sweep. Every timing rule
/// reads the same result, so setup and hold verdicts are provably computed
/// from identical arrival planes.
std::vector<CornerTiming> sweep_sta(const Netlist& nl,
                                    const TimingContext& timing) {
  const StaEngine engine(nl, *timing.tech);
  const std::vector<StaCorner> corners = aging_corners(nl, timing);
  return engine.run(corners);
}

// ---------------------------------------------------------------------------
// timing.razor-coverage — the paper's central safety invariant: any output
// whose worst-case (aged) arrival can exceed one clock period must be
// captured by a Razor flip-flop, or a mispredicted one-cycle issue commits
// a wrong product with no error signal.
// ---------------------------------------------------------------------------
class RazorCoverageRule final : public Rule {
 public:
  std::string_view id() const noexcept override {
    return "timing.razor-coverage";
  }
  RuleCategory category() const noexcept override {
    return RuleCategory::kTiming;
  }
  std::string_view description() const noexcept override {
    return "every output whose aged worst path exceeds T_clk is "
           "Razor-protected";
  }
  void run(const LintContext& ctx, std::vector<Diagnostic>& out) const override {
    if (!timing_ready(ctx, id(), out)) return;
    const Netlist& nl = *ctx.netlist;
    const TimingContext& timing = *ctx.timing;
    const std::vector<CornerTiming> sta = sweep_sta(nl, timing);

    std::size_t can_exceed = 0;
    std::size_t uncovered = 0;
    double worst_ps = 0.0;
    for (std::size_t i = 0; i < nl.num_outputs(); ++i) {
      const NetId o = nl.output_nets()[i];
      // Worst arrival over the whole sweep (aging is monotone, but the rule
      // does not rely on that — every corner is checked).
      double arrival = 0.0;
      const CornerTiming* at = nullptr;
      for (const CornerTiming& c : sta) {
        if (c.max_arrival_ps[o] >= arrival) {
          arrival = c.max_arrival_ps[o];
          at = &c;
        }
      }
      worst_ps = std::max(worst_ps, arrival);
      if (arrival <= timing.period_ps) continue;
      ++can_exceed;
      if (!timing.output_protected(i)) {
        ++uncovered;
        out.push_back(Diagnostic{
            Severity::kError, std::string(id()),
            "output " + nl.output_name(i) + " worst aged arrival " +
                fmt_ps(arrival) + " (" + at->name +
                ") exceeds T_clk = " + fmt_ps(timing.period_ps) +
                " but is not Razor-protected: a late settle commits "
                "silently",
            kNoGate, o});
      }
    }
    if (uncovered == 0) {
      out.push_back(Diagnostic{
          Severity::kInfo, std::string(id()),
          "proved: " + std::to_string(can_exceed) + " of " +
              std::to_string(nl.num_outputs()) +
              " outputs can exceed T_clk = " + fmt_ps(timing.period_ps) +
              " across " + std::to_string(sta.size()) +
              " corners (worst " + fmt_ps(worst_ps) +
              "); all are Razor-protected",
          kNoGate, kInvalidNet});
    }
  }
};

// ---------------------------------------------------------------------------
// timing.shadow-window — Razor only recovers violations the shadow latch
// still captures correctly. A protected output whose aged arrival lands
// beyond the shadow window is a violation Razor *cannot* detect, which the
// repo's RunStats counts as `undetected` — statically that must be
// impossible.
// ---------------------------------------------------------------------------
class ShadowWindowRule final : public Rule {
 public:
  std::string_view id() const noexcept override {
    return "timing.shadow-window";
  }
  RuleCategory category() const noexcept override {
    return RuleCategory::kTiming;
  }
  std::string_view description() const noexcept override {
    return "no aged path can settle beyond the Razor shadow window "
           "(undetectable violation)";
  }
  void run(const LintContext& ctx, std::vector<Diagnostic>& out) const override {
    if (!timing_ready(ctx, id(), out)) return;
    const Netlist& nl = *ctx.netlist;
    const TimingContext& timing = *ctx.timing;
    const std::vector<CornerTiming> sta = sweep_sta(nl, timing);
    const double window_ps =
        timing.period_ps * (1.0 + timing.razor.shadow_window_cycles);

    std::size_t beyond = 0;
    for (std::size_t i = 0; i < nl.num_outputs(); ++i) {
      const NetId o = nl.output_nets()[i];
      // Unprotected late outputs are razor-coverage errors; this rule owns
      // the protected-but-unrecoverable case.
      if (!timing.output_protected(i)) continue;
      for (const CornerTiming& c : sta) {
        const double arrival = c.max_arrival_ps[o];
        if (arrival <= window_ps) continue;
        ++beyond;
        out.push_back(Diagnostic{
            Severity::kError, std::string(id()),
            "output " + nl.output_name(i) + " worst aged arrival " +
                fmt_ps(arrival) + " (" + c.name +
                ") lands beyond the Razor shadow window " + fmt_ps(window_ps) +
                ": the violation is undetectable even with Razor",
            kNoGate, o});
        break;  // one diagnostic per output, at its first failing corner
      }
    }
    if (beyond == 0) {
      out.push_back(Diagnostic{
          Severity::kInfo, std::string(id()),
          "proved: every aged output arrival fits the Razor shadow window " +
              fmt_ps(window_ps),
          kNoGate, kInvalidNet});
    }
  }
};

// ---------------------------------------------------------------------------
// timing.hold-count — the AHL can stretch an operation to at most
// `max_hold_cycles` cycles; the statically computed aged critical path must
// fit that budget at *every* corner of the scenario sweep, or the
// variable-latency guarantee ("every path fits in two cycles") breaks as
// the silicon ages.
// ---------------------------------------------------------------------------
class HoldCountRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "timing.hold-count"; }
  RuleCategory category() const noexcept override {
    return RuleCategory::kTiming;
  }
  std::string_view description() const noexcept override {
    return "the aged critical path fits the AHL hold-cycle budget across "
           "the scenario sweep";
  }
  void run(const LintContext& ctx, std::vector<Diagnostic>& out) const override {
    if (!timing_ready(ctx, id(), out)) return;
    const Netlist& nl = *ctx.netlist;
    const TimingContext& timing = *ctx.timing;
    const double budget_ps = timing.period_ps * timing.max_hold_cycles;
    const std::vector<CornerTiming> sta = sweep_sta(nl, timing);

    const CornerTiming* first_bad = nullptr;
    const CornerTiming* worst = nullptr;
    for (const CornerTiming& c : sta) {
      if (worst == nullptr || c.critical_path_ps > worst->critical_path_ps) {
        worst = &c;
      }
      if (c.critical_path_ps > budget_ps && first_bad == nullptr) {
        first_bad = &c;
      }
    }

    if (first_bad != nullptr) {
      out.push_back(Diagnostic{
          Severity::kError, std::string(id()),
          "aged critical path " + fmt_ps(worst->critical_path_ps) + " (" +
              worst->name + ", first violation at " + first_bad->name +
              ") exceeds the AHL hold budget " +
              std::to_string(timing.max_hold_cycles) + " x T_clk = " +
              fmt_ps(budget_ps) +
              ": a held operation can still miss its deadline",
          kNoGate, kInvalidNet});
    } else {
      out.push_back(Diagnostic{
          Severity::kInfo, std::string(id()),
          "proved: critical path stays within the hold budget " +
              std::to_string(timing.max_hold_cycles) + " x T_clk = " +
              fmt_ps(budget_ps) + " across " +
              std::to_string(sta.size()) + " corners (worst " +
              fmt_ps(worst->critical_path_ps) + " at " + worst->name +
              ", margin " + fmt_ps(budget_ps - worst->critical_path_ps) + ")",
          kNoGate, kInvalidNet});
    }
  }
};

// ---------------------------------------------------------------------------
// timing.hold-window — the min-path dual of timing.shadow-window. The shadow
// latch samples a Razor-protected output W = shadow_window_cycles x T_clk
// after the main capture edge, which is exactly when the *next* operation has
// been computing for W. If any min-corner arrival of a protected output is
// below W (+ margin), the next operation's data races through the short path
// and tramples the shadow capture — Razor then compares the main flop against
// garbage, so a real late settle can be "confirmed" correct. The legacy
// max-only rules are structurally blind to this: it is a failure of the
// *earliest* arrival, and (per the StaEngine min-plane contract) tri-state
// bypass enables make real short paths even shorter than an always-enabled
// reading admits.
//
// Gated behind TimingContext::check_hold because bare generated multipliers
// genuinely violate it (p[0] is a single AND gate); the hold-repair pass
// (src/lint/repair.hpp) exists to make designs pass this rule.
// ---------------------------------------------------------------------------
class HoldWindowRule final : public Rule {
 public:
  std::string_view id() const noexcept override {
    return "timing.hold-window";
  }
  RuleCategory category() const noexcept override {
    return RuleCategory::kTiming;
  }
  std::string_view description() const noexcept override {
    return "no Razor-protected output's earliest (min-corner) arrival falls "
           "inside the shadow sampling window";
  }
  void run(const LintContext& ctx, std::vector<Diagnostic>& out) const override {
    if (!timing_ready(ctx, id(), out)) return;
    const Netlist& nl = *ctx.netlist;
    const TimingContext& timing = *ctx.timing;
    if (!timing.check_hold) {
      out.push_back(Diagnostic{
          Severity::kInfo, std::string(id()),
          "skipped: hold analysis disabled (enable with "
          "TimingContext::check_hold / aginglint --hold)",
          kNoGate, kInvalidNet});
      return;
    }
    const std::vector<CornerTiming> sta = sweep_sta(nl, timing);
    const double window_ps =
        timing.period_ps * timing.razor.shadow_window_cycles;
    const double required_ps = window_ps + timing.hold_margin_ps;

    std::size_t violating = 0;
    std::size_t protected_outputs = 0;
    double tightest = 0.0;
    bool have_margin = false;
    for (std::size_t i = 0; i < nl.num_outputs(); ++i) {
      if (!timing.output_protected(i)) continue;
      ++protected_outputs;
      const NetId o = nl.output_nets()[i];
      for (const CornerTiming& c : sta) {
        const double arrival = c.min_arrival_ps[o];
        if (arrival < required_ps) {
          ++violating;
          out.push_back(Diagnostic{
              Severity::kError, std::string(id()),
              "output " + nl.output_name(i) + " earliest arrival " +
                  fmt_ps(arrival) + " (" + c.name +
                  ") falls inside the shadow sampling window " +
                  fmt_ps(window_ps) + " + margin " +
                  fmt_ps(timing.hold_margin_ps) +
                  ": the next operation's short path overwrites the shadow "
                  "capture before it samples, making real violations "
                  "undetectable",
              kNoGate, o});
          break;  // one diagnostic per output, at its first failing corner
        }
        const double margin = arrival - required_ps;
        if (!have_margin || margin < tightest) {
          tightest = margin;
          have_margin = true;
        }
      }
    }
    if (violating == 0) {
      out.push_back(Diagnostic{
          Severity::kInfo, std::string(id()),
          "proved: all " + std::to_string(protected_outputs) +
              " Razor-protected outputs clear the shadow sampling window " +
              fmt_ps(window_ps) + " + margin " +
              fmt_ps(timing.hold_margin_ps) + " across " +
              std::to_string(sta.size()) + " corners" +
              (have_margin ? " (tightest hold margin " + fmt_ps(tightest) + ")"
                           : ""),
          kNoGate, kInvalidNet});
    }
  }
};

}  // namespace

std::vector<StaCorner> aging_corners(const Netlist& netlist,
                                     const TimingContext& timing) {
  std::vector<StaCorner> corners;
  if (timing.aging == nullptr || timing.sweep_years.empty()) {
    corners.push_back(StaCorner{"fresh", {}});
    return corners;
  }
  std::vector<double> years = timing.sweep_years;
  std::sort(years.begin(), years.end());
  years.erase(std::unique(years.begin(), years.end()), years.end());
  corners.reserve(years.size());
  for (const double y : years) {
    StaCorner c;
    c.name = "year " + fmt_years(y);
    c.gate_delay_scale = timing.aging->delay_scales_at(y);
    if (c.gate_delay_scale.size() != netlist.num_gates()) {
      throw std::invalid_argument(
          "aging_corners: scenario overlay is not sized one-per-gate (the "
          "aging scenario was built for a different netlist)");
    }
    corners.push_back(std::move(c));
  }
  return corners;
}

void register_timing_rules(RuleRegistry& registry) {
  registry.add(std::make_unique<RazorCoverageRule>());
  registry.add(std::make_unique<ShadowWindowRule>());
  registry.add(std::make_unique<HoldCountRule>());
  registry.add(std::make_unique<HoldWindowRule>());
}

}  // namespace agingsim::lint
