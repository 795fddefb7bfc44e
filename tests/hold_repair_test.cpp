// End-to-end tests for the shadow-window hold analysis (timing.hold-window)
// and the automatic HoldRepair pass: an injected short path that every
// legacy max-side rule accepts must be flagged by the new min-corner rule
// and then fixed by buffer insertion, with logic equivalence proved through
// the batch timing kernel.

#include "src/lint/repair.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/aging/prob_propagation.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/lint/engine.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/sim/sta.hpp"

namespace agingsim {
namespace {

std::vector<lint::Diagnostic> diags_for(
    const std::vector<lint::Diagnostic>& diags, const std::string& rule,
    lint::Severity severity) {
  std::vector<lint::Diagnostic> hits;
  for (const lint::Diagnostic& d : diags) {
    if (d.rule == rule && d.severity == severity) hits.push_back(d);
  }
  return hits;
}

/// Fixture: a deliberately fast Razor-protected output ("p_fast", one AND)
/// next to a slow one riding an inverter chain sized so the fast output's
/// earliest arrival sits far inside the shadow sampling window, while every
/// *max*-side quantity (critical path, shadow-window ceiling, coverage) is
/// comfortably legal. The legacy rules are structurally blind to it.
struct ShortPathFixture {
  NetlistBuilder nb;
  NetId slow_out, fast_out;
  lint::TimingContext timing;
  const TechLibrary& tech = default_tech_library();

  ShortPathFixture() {
    const NetId a = nb.input("a");
    const NetId b = nb.input("b");
    const NetId c = nb.input("c");
    NetId x = a;
    for (int i = 0; i < 40; ++i) x = nb.inv(x);
    slow_out = x;
    fast_out = nb.and2(b, c);
    nb.netlist().mark_output(slow_out, "p_slow");
    nb.netlist().mark_output(fast_out, "p_fast");

    timing.tech = &tech;  // no aging scenario: single fresh corner
    // Two-cycle AHL budget exactly covers the chain, as aginglint's auto
    // period would pick it.
    const double crit =
        StaEngine(nb.netlist(), tech).run_corner({}).critical_path_ps;
    timing.period_ps = crit / timing.max_hold_cycles + 1.0;
  }

  lint::LintReport lint() const {
    lint::LintContext ctx;
    ctx.netlist = &nb.netlist();
    ctx.timing = &timing;
    return lint::LintEngine().run(ctx);
  }
};

TEST(HoldWindowRuleTest, LegacyMaxOnlyRulesMissTheShortPath) {
  ShortPathFixture fx;
  ASSERT_FALSE(fx.timing.check_hold);
  const lint::LintReport report = fx.lint();
  // Every legacy timing rule passes the design...
  EXPECT_EQ(report.errors(), 0u) << report.summary();
  for (const char* rule : {"timing.razor-coverage", "timing.shadow-window",
                           "timing.hold-count"}) {
    EXPECT_TRUE(diags_for(report.diagnostics, rule, lint::Severity::kError)
                    .empty())
        << rule;
  }
  // ...and the hold rule records that it was not asked to run.
  const auto skipped = diags_for(report.diagnostics, "timing.hold-window",
                                 lint::Severity::kInfo);
  ASSERT_EQ(skipped.size(), 1u);
  EXPECT_NE(skipped[0].message.find("skipped"), std::string::npos);
}

TEST(HoldWindowRuleTest, FlagsTheInjectedShortPathWhenEnabled) {
  ShortPathFixture fx;
  fx.timing.check_hold = true;
  const lint::LintReport report = fx.lint();
  const auto errors = diags_for(report.diagnostics, "timing.hold-window",
                                lint::Severity::kError);
  ASSERT_EQ(errors.size(), 1u) << report.summary();
  EXPECT_NE(errors[0].message.find("p_fast"), std::string::npos)
      << errors[0].message;
  EXPECT_NE(errors[0].message.find("shadow sampling window"),
            std::string::npos);
  EXPECT_EQ(errors[0].net, fx.fast_out);
}

TEST(HoldWindowRuleTest, UnprotectedOutputsAreExempt) {
  ShortPathFixture fx;
  fx.timing.check_hold = true;
  fx.timing.razor_protected.assign(2, 1);
  fx.timing.razor_protected[1] = 0;  // sever p_fast's Razor tap
  const lint::LintReport report = fx.lint();
  EXPECT_TRUE(diags_for(report.diagnostics, "timing.hold-window",
                        lint::Severity::kError)
                  .empty());
}

TEST(HoldRepairTest, EndpointPaddingFixesTheInjectedShortPath) {
  ShortPathFixture fx;
  fx.timing.check_hold = true;
  ASSERT_GT(fx.lint().errors(), 0u);

  const lint::HoldRepairResult r =
      lint::repair_hold(fx.nb.netlist(), fx.tech, fx.timing);
  EXPECT_TRUE(r.hold_clean);
  EXPECT_TRUE(r.max_clean);
  EXPECT_TRUE(r.equivalence.ok());
  EXPECT_TRUE(r.clean());
  EXPECT_GT(r.buffers_inserted, 0);
  EXPECT_GE(r.passes, 1);
  ASSERT_EQ(r.outputs.size(), 2u);
  EXPECT_EQ(r.outputs[1].name, "p_fast");
  EXPECT_GT(r.outputs[1].buffers_inserted, 0);
  EXPECT_LT(r.outputs[1].min_before_ps, r.required_min_ps);
  EXPECT_GE(r.outputs[1].min_after_ps, r.required_min_ps);
  EXPECT_EQ(r.outputs[0].buffers_inserted, 0);  // slow output untouched

  // The full rule set — including the hold rule — is clean afterwards.
  const lint::LintReport after = fx.lint();
  EXPECT_EQ(after.errors(), 0u) << after.summary();
}

// A short path *merged into* a setup-critical output: endpoint padding is
// infeasible (the output's max arrival already sits at the AHL budget), so
// the repair must insert upstream, on the fast fanin edge only.
TEST(HoldRepairTest, WideSpanOutputRepairsUpstream) {
  NetlistBuilder nb;
  const TechLibrary& tech = default_tech_library();
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  NetId x = a;
  for (int i = 0; i < 40; ++i) x = nb.inv(x);
  const NetId y = nb.or2(x, b);  // fast arc b, slow arc x, one output
  nb.netlist().mark_output(y, "y");

  lint::TimingContext timing;
  timing.tech = &tech;
  const double crit =
      StaEngine(nb.netlist(), tech).run_corner({}).critical_path_ps;
  timing.period_ps = crit / timing.max_hold_cycles + 1.0;
  timing.check_hold = true;

  const double span =
      crit - tech.delay(CellKind::kOr2);  // max - min before repair
  ASSERT_GT(span, timing.period_ps);  // endpoint padding provably infeasible

  const lint::HoldRepairResult r =
      lint::repair_hold(nb.netlist(), tech, timing);
  EXPECT_TRUE(r.hold_clean);
  EXPECT_TRUE(r.max_clean);
  EXPECT_TRUE(r.equivalence.ok());
  EXPECT_GT(r.buffers_inserted, 0);
  // Max side must not have moved past the budget: the slow arc was already
  // within 2 ps of it, so insertion must have avoided that path.
  EXPECT_LE(r.outputs[0].max_after_ps,
            timing.period_ps * timing.max_hold_cycles + 1e-6);
  EXPECT_GE(r.outputs[0].min_after_ps, r.required_min_ps);

  lint::LintContext ctx;
  ctx.netlist = &nb.netlist();
  ctx.timing = &timing;
  EXPECT_EQ(lint::LintEngine().run(ctx).errors(), 0u);
}

// With a one-cycle budget and a period chosen so min must equal max to the
// sub-buffer granularity, no legal insertion exists: the pass must stop and
// report the failure honestly instead of looping or lying.
TEST(HoldRepairTest, UnrepairableDesignReportsHonestly) {
  NetlistBuilder nb;
  const TechLibrary& tech = default_tech_library();
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId y = nb.and2(a, b);
  nb.netlist().mark_output(y, "y");

  lint::TimingContext timing;
  timing.tech = &tech;
  timing.max_hold_cycles = 1;
  timing.period_ps =
      tech.delay(CellKind::kAnd2) + 0.5 * tech.delay(CellKind::kBuf);
  timing.check_hold = true;

  const lint::HoldRepairResult r =
      lint::repair_hold(nb.netlist(), tech, timing);
  EXPECT_FALSE(r.hold_clean);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.buffers_inserted, 0);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_FALSE(r.outputs[0].hold_ok_after);
  EXPECT_LT(r.outputs[0].min_after_ps, r.required_min_ps);
  // The netlist was not altered (no partial, pointless insertions)...
  EXPECT_EQ(nb.netlist().num_gates(), 1u);
  // ...and equivalence over the identity edit trivially holds.
  EXPECT_TRUE(r.equivalence.ok());
}

// The acceptance scenario end to end on a real generated multiplier with a
// real aging sweep: stock designs genuinely violate the hold window (p[0]
// is a single AND gate), repair makes the full multi-corner analysis clean,
// and the repaired netlist still multiplies (consistency rule + equivalence
// through the batch kernel).
TEST(HoldRepairTest, StockMultiplierRepairsToCleanAcrossAgedCorners) {
  const TechLibrary& tech = default_tech_library();
  MultiplierNetlist mult = build_multiplier(MultiplierArch::kColumnBypass, 8);
  const AgingScenario aging(mult.netlist, tech, BtiModel::calibrated(tech),
                            analytic_stress(mult.netlist));

  lint::TimingContext timing;
  timing.tech = &tech;
  timing.aging = &aging;
  timing.sweep_years = {0.0, 3.5, 7.0};
  timing.check_hold = true;
  timing.period_ps =
      critical_path_ps(mult, tech, aging.delay_scales_at(7.0)) /
          timing.max_hold_cycles +
      1.0;

  // Pre-repair: the hold rule fires (p[0]'s min arrival is one AND delay),
  // the legacy rules do not.
  {
    lint::LintContext ctx;
    ctx.netlist = &mult.netlist;
    ctx.multiplier = &mult;
    ctx.timing = &timing;
    const lint::LintReport before = lint::LintEngine().run(ctx);
    EXPECT_FALSE(diags_for(before.diagnostics, "timing.hold-window",
                           lint::Severity::kError)
                     .empty());
    for (const char* rule : {"timing.razor-coverage", "timing.shadow-window",
                             "timing.hold-count"}) {
      EXPECT_TRUE(diags_for(before.diagnostics, rule, lint::Severity::kError)
                      .empty())
          << rule;
    }
  }

  const lint::HoldRepairResult r =
      lint::repair_hold(mult.netlist, tech, timing);
  EXPECT_TRUE(r.hold_clean);
  EXPECT_TRUE(r.max_clean);
  EXPECT_TRUE(r.equivalence.ok());
  EXPECT_GT(r.buffers_inserted, 0);

  // Re-lint the repaired netlist with an aging scenario re-extracted on it
  // (the original's overlays are sized for the pre-repair gate count).
  const AgingScenario repaired_aging(mult.netlist, tech,
                                     BtiModel::calibrated(tech),
                                     analytic_stress(mult.netlist));
  lint::TimingContext after_timing = timing;
  after_timing.aging = &repaired_aging;
  lint::LintContext ctx;
  ctx.netlist = &mult.netlist;
  ctx.multiplier = &mult;
  ctx.timing = &after_timing;
  const lint::LintReport after = lint::LintEngine().run(ctx);
  EXPECT_EQ(after.errors(), 0u) << after.summary();
}

}  // namespace
}  // namespace agingsim
