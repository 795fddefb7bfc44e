// Per-rule coverage of the lint subsystem: every rule gets one passing and
// one deliberately-broken netlist (broken via the public API where
// possible, via NetlistSurgeon where construction makes the defect
// unrepresentable), plus the acceptance gates: all stock architectures lint
// error-free at a safe period, and the timing rules fire when Razor
// protection is severed or the clock is tightened below the aged critical
// path.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/aging/prob_propagation.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/lint/engine.hpp"
#include "src/lint/structural.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/surgeon.hpp"
#include "src/report/json.hpp"
#include "src/sim/sta.hpp"

namespace agingsim {
namespace {

using lint::Diagnostic;
using lint::LintContext;
using lint::LintEngine;
using lint::LintReport;
using lint::Severity;

std::vector<Diagnostic> diags_for(const std::vector<Diagnostic>& diags,
                                  std::string_view rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

std::size_t errors_for(const std::vector<Diagnostic>& diags,
                       std::string_view rule) {
  std::size_t n = 0;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule && d.severity == Severity::kError) ++n;
  }
  return n;
}

/// a AND b -> y, marked as output; structurally pristine.
Netlist small_clean_netlist() {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.add_gate(CellKind::kAnd2, {a, b});
  nl.mark_output(y, "y");
  return nl;
}

TEST(LintStructuralTest, CleanNetlistHasNoFindings) {
  const Netlist nl = small_clean_netlist();
  const auto diags = lint::structural_diagnostics(nl);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kInfo) << d.rule << ": " << d.message;
  }
  EXPECT_NO_THROW(nl.validate());
}

TEST(LintStructuralTest, NetDriverRuleFlagsDuplicatedDriver) {
  Netlist nl = small_clean_netlist();
  // Point net b's driver entry at gate 0, which drives y: two nets now
  // claim the same driver (and an input claims a driver at all).
  NetlistSurgeon(nl).set_driver(1, 0);
  const auto diags = lint::structural_diagnostics(nl);
  EXPECT_GE(errors_for(diags, "structural.net-driver"), 1u);
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(LintStructuralTest, NetDriverRuleFlagsStolenGateOutput) {
  Netlist nl = small_clean_netlist();
  NetlistSurgeon(nl).set_gate_out(0, 0);  // gate 0 now claims input net a
  const auto diags = lint::structural_diagnostics(nl);
  EXPECT_GE(errors_for(diags, "structural.net-driver"), 1u);
}

TEST(LintStructuralTest, PinArityRuleFlagsDroppedPin) {
  Netlist nl = small_clean_netlist();
  NetlistSurgeon(nl).set_gate_pin_count(0, 1);  // AND2 with one pin
  const auto diags = lint::structural_diagnostics(nl);
  ASSERT_GE(errors_for(diags, "structural.pin-arity"), 1u);
  const auto hits = diags_for(diags, "structural.pin-arity");
  EXPECT_NE(hits[0].message.find("AND2"), std::string::npos) << hits[0].message;
}

TEST(LintStructuralTest, PinArityRuleFlagsPinWindowPastArrayEnd) {
  Netlist nl = small_clean_netlist();
  NetlistSurgeon(nl).set_gate_pin_begin(0, 40);  // window beyond pins_
  const auto diags = lint::structural_diagnostics(nl);
  EXPECT_GE(errors_for(diags, "structural.pin-arity"), 1u);
}

TEST(LintStructuralTest, PinArityRuleFlagsNonexistentInputNet) {
  Netlist nl = small_clean_netlist();
  NetlistSurgeon(nl).set_pin(0, NetId{777});
  const auto diags = lint::structural_diagnostics(nl);
  EXPECT_GE(errors_for(diags, "structural.pin-arity"), 1u);
}

TEST(LintStructuralTest, CellKindRuleFlagsOutOfLibraryKind) {
  Netlist nl = small_clean_netlist();
  NetlistSurgeon(nl).set_gate_kind(0, CellKind::kCount);
  const auto diags = lint::structural_diagnostics(nl);
  EXPECT_GE(errors_for(diags, "structural.cell-kind"), 1u);
}

TEST(LintStructuralTest, TopoOrderRuleFlagsSelfReference) {
  Netlist nl = small_clean_netlist();
  // Gate 0 reads its own output net (id 2): a combinational cycle.
  NetlistSurgeon(nl).set_pin(0, NetId{2});
  const auto diags = lint::structural_diagnostics(nl);
  EXPECT_GE(errors_for(diags, "structural.topo-order"), 1u);
}

TEST(LintStructuralTest, OutputDanglingRuleFlagsRewiredOutput) {
  Netlist nl = small_clean_netlist();
  NetlistSurgeon(nl).set_output_net(0, NetId{123});
  const auto diags = lint::structural_diagnostics(nl);
  EXPECT_GE(errors_for(diags, "structural.output-dangling"), 1u);
}

TEST(LintStructuralTest, OutputDuplicateRuleFlagsDoubleRegistration) {
  Netlist nl = small_clean_netlist();
  nl.mark_output(NetId{2}, "y_again");  // same net, second name
  const auto diags = lint::structural_diagnostics(nl);
  ASSERT_GE(errors_for(diags, "structural.output-duplicate"), 1u);
  EXPECT_THROW(nl.validate(), std::logic_error);
}

TEST(LintStructuralTest, OutputDuplicateRuleFlagsReusedName) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId x = nl.add_gate(CellKind::kBuf, {a});
  const NetId y = nl.add_gate(CellKind::kInv, {a});
  nl.mark_output(x, "out");
  nl.mark_output(y, "out");  // distinct nets, same name
  const auto diags = lint::structural_diagnostics(nl);
  EXPECT_GE(errors_for(diags, "structural.output-duplicate"), 1u);
}

TEST(LintStructuralTest, FanoutFreeNetRuleIsAWarningNotAnError) {
  Netlist nl = small_clean_netlist();
  nl.add_gate(CellKind::kInv, {NetId{0}});  // dead gate, never marked
  const auto diags = lint::structural_diagnostics(nl);
  const auto hits = diags_for(diags, "structural.fanout-free-net");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].gate, GateId{1});
  EXPECT_NO_THROW(nl.validate());  // warnings must not throw
}

TEST(LintStructuralTest, UnobservableGateRuleFlagsDeadCone) {
  Netlist nl = small_clean_netlist();
  // g1 feeds g2; g2 is a dead end. g1 has fanout but no path to an output.
  const NetId mid = nl.add_gate(CellKind::kInv, {NetId{0}});
  nl.add_gate(CellKind::kBuf, {mid});
  const auto diags = lint::structural_diagnostics(nl);
  const auto unobservable = diags_for(diags, "structural.unobservable-gate");
  ASSERT_EQ(unobservable.size(), 1u);
  EXPECT_EQ(unobservable[0].gate, GateId{1});
  // The dead end itself is the fanout-free finding, not an unobservable one.
  const auto dead_end = diags_for(diags, "structural.fanout-free-net");
  ASSERT_EQ(dead_end.size(), 1u);
  EXPECT_EQ(dead_end[0].gate, GateId{2});
}

TEST(LintStructuralTest, UnusedInputRuleFlagsDanglingOperandBit) {
  Netlist nl = small_clean_netlist();
  nl.add_input("c");  // read by nothing
  const auto diags = lint::structural_diagnostics(nl);
  const auto hits = diags_for(diags, "structural.unused-input");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_NE(hits[0].message.find("c"), std::string::npos);
}

TEST(LintStructuralTest, BypassExclusivityRuleFlagsAliasedMuxAndTbuf) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId s = nl.add_input("s");
  const NetId good = nl.add_gate(CellKind::kMux2, {a, b, s});
  nl.mark_output(good, "good");
  {
    const auto diags = lint::structural_diagnostics(nl);
    EXPECT_TRUE(diags_for(diags, "structural.bypass-exclusivity").empty());
  }
  const NetId aliased_data = nl.add_gate(CellKind::kMux2, {a, a, s});
  const NetId aliased_sel = nl.add_gate(CellKind::kMux2, {a, b, a});
  const NetId aliased_tbuf = nl.add_gate(CellKind::kTbuf, {b, b});
  nl.mark_output(aliased_data, "m1");
  nl.mark_output(aliased_sel, "m2");
  nl.mark_output(aliased_tbuf, "t1");
  const auto diags = lint::structural_diagnostics(nl);
  const auto hits = diags_for(diags, "structural.bypass-exclusivity");
  ASSERT_EQ(hits.size(), 3u);
  for (const Diagnostic& d : hits) {
    EXPECT_EQ(d.severity, Severity::kWarning) << d.message;
  }
}

TEST(LintStructuralTest, ValidateAggregatesEveryViolationInOneThrow) {
  Netlist nl = small_clean_netlist();
  NetlistSurgeon surgeon(nl);
  surgeon.set_gate_kind(0, CellKind::kCount);
  surgeon.set_gate_pin_count(0, 7);
  try {
    nl.validate();
    FAIL() << "validate() must throw on a corrupted netlist";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("structural.cell-kind"), std::string::npos) << what;
    EXPECT_NE(what.find("structural.pin-arity"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Timing rules
// ---------------------------------------------------------------------------

class LintTimingTest : public ::testing::Test {
 protected:
  LintTimingTest()
      : tech_(calibrated_tech_library()),
        mult_(build_column_bypass_multiplier(8)),
        aging_(mult_.netlist, tech_, BtiModel::calibrated(tech_),
               analytic_stress(mult_.netlist)),
        fresh_crit_(critical_path_ps(mult_, tech_)),
        aged_crit_(
            critical_path_ps(mult_, tech_, aging_.delay_scales_at(7.0))) {}

  LintReport run_with(const lint::TimingContext& timing) const {
    lint::LintContext ctx;
    ctx.netlist = &mult_.netlist;
    ctx.timing = &timing;
    LintEngine engine;
    return engine.run(ctx);
  }

  /// Primary-output index with the worst aged arrival.
  std::size_t critical_output_index() const {
    const CornerTiming sta = StaEngine(mult_.netlist, tech_)
                                 .run_corner({"", aging_.delay_scales_at(7.0)});
    std::size_t worst = 0;
    double worst_ps = -1.0;
    for (std::size_t i = 0; i < mult_.netlist.num_outputs(); ++i) {
      const double a = sta.max_arrival_ps[mult_.netlist.output_nets()[i]];
      if (a > worst_ps) {
        worst_ps = a;
        worst = i;
      }
    }
    return worst;
  }

  lint::TimingContext safe_timing() const {
    lint::TimingContext timing;
    timing.tech = &tech_;
    timing.aging = &aging_;
    timing.sweep_years = {0.0, 3.5, 7.0};
    timing.period_ps = aged_crit_ / 2.0 + 1.0;
    return timing;
  }

  TechLibrary tech_;
  MultiplierNetlist mult_;
  AgingScenario aging_;
  double fresh_crit_;
  double aged_crit_;
};

TEST_F(LintTimingTest, SafePeriodWithFullRazorBankIsClean) {
  const LintReport report = run_with(safe_timing());
  EXPECT_TRUE(report.clean()) << report.summary();
  // All three timing rules must report what they proved.
  for (const char* rule : {"timing.razor-coverage", "timing.shadow-window",
                           "timing.hold-count"}) {
    const auto infos = diags_for(report.diagnostics, rule);
    ASSERT_EQ(infos.size(), 1u) << rule;
    EXPECT_NE(infos[0].message.find("proved"), std::string::npos) << rule;
  }
}

TEST_F(LintTimingTest, SeveredRazorTapRaisesCoverageError) {
  lint::TimingContext timing = safe_timing();
  // Tighten below the aged critical path so the critical output *can* miss
  // the edge, then sever exactly its Razor tap.
  timing.period_ps = aged_crit_ * 0.75;
  timing.razor_protected.assign(mult_.netlist.num_outputs(), 1);
  const std::size_t victim = critical_output_index();
  timing.razor_protected[victim] = 0;
  const LintReport report = run_with(timing);
  const auto errors = diags_for(report.diagnostics, "timing.razor-coverage");
  ASSERT_EQ(errors.size(), 1u) << report.summary();
  EXPECT_EQ(errors[0].severity, Severity::kError);
  EXPECT_EQ(errors[0].net, mult_.netlist.output_nets()[victim]);
  EXPECT_NE(errors[0].message.find("not Razor-protected"), std::string::npos);
  // Re-attaching the tap clears the error.
  timing.razor_protected[victim] = 1;
  EXPECT_TRUE(run_with(timing).clean());
}

TEST_F(LintTimingTest, TightenedPeriodRaisesHoldCountError) {
  lint::TimingContext timing = safe_timing();
  timing.period_ps = fresh_crit_ / 4.0;  // 2 x T far below the aged path
  const LintReport report = run_with(timing);
  const auto errors = diags_for(report.diagnostics, "timing.hold-count");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].severity, Severity::kError);
  EXPECT_NE(errors[0].message.find("hold budget"), std::string::npos);
}

TEST_F(LintTimingTest, HoldCountCatchesAgingOnlyViolation) {
  // A period that fits the fresh critical path but not the aged one: the
  // sweep must catch the violation appearing over the 7-year horizon.
  lint::TimingContext timing = safe_timing();
  timing.period_ps = fresh_crit_ / 2.0 + 0.5;
  ASSERT_GT(aged_crit_, 2.0 * timing.period_ps);
  const LintReport report = run_with(timing);
  const auto errors = diags_for(report.diagnostics, "timing.hold-count");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("year 7.0"), std::string::npos)
      << errors[0].message;
}

TEST_F(LintTimingTest, ArrivalBeyondShadowWindowIsUndetectable) {
  lint::TimingContext timing = safe_timing();
  timing.period_ps = aged_crit_ / 2.0 - 1.0;  // critical path > 2 x T
  const LintReport report = run_with(timing);
  EXPECT_GE(diags_for(report.diagnostics, "timing.shadow-window").size(), 1u);
  EXPECT_FALSE(report.clean());
}

TEST_F(LintTimingTest, TimingRulesSkipGracefullyWithoutContext) {
  lint::LintContext ctx;
  ctx.netlist = &mult_.netlist;
  LintEngine engine;
  const LintReport report = engine.run(ctx);
  EXPECT_TRUE(report.clean()) << report.summary();
  const auto infos = diags_for(report.diagnostics, "timing.razor-coverage");
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_NE(infos[0].message.find("skipped"), std::string::npos);
}

TEST_F(LintTimingTest, HoldWindowRuleIsOptInAndRecordsWhy) {
  // Default context: the rule must not fire (stock multipliers genuinely
  // have short paths) but must say it was disabled, not silently pass.
  const LintReport report = run_with(safe_timing());
  const auto infos = diags_for(report.diagnostics, "timing.hold-window");
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].severity, Severity::kInfo);
  EXPECT_NE(infos[0].message.find("skipped"), std::string::npos);
  EXPECT_NE(infos[0].message.find("disabled"), std::string::npos);
}

TEST_F(LintTimingTest, HoldWindowFlagsStockShortPathsWhenEnabled) {
  lint::TimingContext timing = safe_timing();
  timing.check_hold = true;
  const LintReport report = run_with(timing);
  // p[0] of any generated multiplier is a single AND gate: its earliest
  // arrival is one cell delay, far inside the shadow sampling window at
  // this period — an undetectable-corruption hazard only min analysis sees.
  const auto errors = diags_for(report.diagnostics, "timing.hold-window");
  ASSERT_GE(errors.size(), 1u) << report.summary();
  EXPECT_EQ(errors[0].severity, Severity::kError);
  EXPECT_NE(errors[0].message.find("shadow sampling window"),
            std::string::npos);
  bool p0_flagged = false;
  for (const Diagnostic& d : errors) {
    p0_flagged |= d.net == mult_.netlist.output_nets()[0];
  }
  EXPECT_TRUE(p0_flagged);

  // Severing p[0]'s Razor tap exempts it: the shadow latch it would trample
  // no longer exists.
  timing.razor_protected.assign(mult_.netlist.num_outputs(), 1);
  timing.razor_protected[0] = 0;
  const LintReport exempt = run_with(timing);
  for (const Diagnostic& d :
       diags_for(exempt.diagnostics, "timing.hold-window")) {
    EXPECT_NE(d.net, mult_.netlist.output_nets()[0]) << d.message;
  }
}

TEST_F(LintTimingTest, HoldMarginTightensTheWindowRule) {
  // With a huge margin even the slowest output's min arrival is "inside the
  // window": every protected output must be flagged.
  lint::TimingContext timing = safe_timing();
  timing.check_hold = true;
  timing.hold_margin_ps = 10.0 * aged_crit_;
  const LintReport report = run_with(timing);
  EXPECT_EQ(errors_for(report.diagnostics, "timing.hold-window"),
            mult_.netlist.num_outputs());
}

// ---------------------------------------------------------------------------
// Consistency rule
// ---------------------------------------------------------------------------

TEST(LintConsistencyTest, StockMultiplierMatchesGolden) {
  const MultiplierNetlist mult = build_column_bypass_multiplier(8);
  lint::LintContext ctx;
  ctx.netlist = &mult.netlist;
  ctx.multiplier = &mult;
  ctx.consistency.vectors = 64;
  LintEngine engine;
  const LintReport report = engine.run(ctx);
  EXPECT_TRUE(report.clean()) << report.summary();
  const auto infos =
      diags_for(report.diagnostics, "consistency.functional");
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_NE(infos[0].message.find("proved"), std::string::npos);
}

TEST(LintConsistencyTest, MiswiredGateRaisesFunctionalError) {
  MultiplierNetlist mult = build_column_bypass_multiplier(8);
  // p[0] is pp[0][0] = a0 AND b0; turning its driver into an OR flips the
  // product's LSB whenever exactly one operand is odd.
  const NetId p0 = mult.netlist.output_nets()[0];
  const std::int32_t driver = mult.netlist.driver_of(p0);
  ASSERT_GE(driver, 0);
  ASSERT_EQ(mult.netlist.gate(static_cast<GateId>(driver)).kind,
            CellKind::kAnd2);
  NetlistSurgeon(mult.netlist)
      .set_gate_kind(static_cast<GateId>(driver), CellKind::kOr2);
  lint::LintContext ctx;
  ctx.netlist = &mult.netlist;
  ctx.multiplier = &mult;
  ctx.consistency.vectors = 64;
  LintEngine engine;
  const LintReport report = engine.run(ctx);
  EXPECT_GE(errors_for(report.diagnostics, "consistency.functional"), 1u);
}

// ---------------------------------------------------------------------------
// Engine / registry / report plumbing
// ---------------------------------------------------------------------------

TEST(LintEngineTest, RegistryRejectsDuplicateRuleIds) {
  lint::RuleRegistry registry;
  lint::register_structural_rules(registry);
  EXPECT_THROW(lint::register_structural_rules(registry),
               std::invalid_argument);
  EXPECT_NE(registry.find("structural.pin-arity"), nullptr);
  EXPECT_EQ(registry.find("no.such.rule"), nullptr);
}

TEST(LintEngineTest, RunWithoutNetlistThrows) {
  LintEngine engine;
  EXPECT_THROW(engine.run(lint::LintContext{}), std::invalid_argument);
}

TEST(LintEngineTest, ReportSortsErrorsFirstAndCountsBySeverity) {
  Netlist nl = small_clean_netlist();
  nl.add_gate(CellKind::kInv, {NetId{0}});  // warning: dead gate
  NetlistSurgeon(nl).set_gate_kind(0, CellKind::kCount);  // error
  lint::RuleRegistry registry;
  lint::register_structural_rules(registry);
  LintEngine engine(std::move(registry));
  lint::LintContext ctx;
  ctx.netlist = &nl;
  const LintReport report = engine.run(ctx);
  ASSERT_GE(report.errors(), 1u);
  ASSERT_GE(report.warnings(), 1u);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.diagnostics.front().severity, Severity::kError);
  EXPECT_EQ(report.count(Severity::kError), report.errors());
  EXPECT_NE(report.summary().find("error"), std::string::npos);
}

TEST(LintEngineTest, JsonReportCarriesCountsAndAnchors) {
  Netlist nl = small_clean_netlist();
  NetlistSurgeon(nl).set_gate_kind(0, CellKind::kCount);
  lint::RuleRegistry registry;
  lint::register_structural_rules(registry);
  LintEngine engine(std::move(registry));
  lint::LintContext ctx;
  ctx.netlist = &nl;
  const LintReport report = engine.run(ctx);
  JsonWriter writer;
  report.write_json(writer);
  const std::string json = writer.str();
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
  EXPECT_NE(json.find("\"structural.cell-kind\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"gate\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Acceptance gate: every stock architecture lints error-free with the full
// rule set (structural + timing at a safe period + consistency).
// ---------------------------------------------------------------------------

class StockArchitectureLintTest
    : public ::testing::TestWithParam<std::tuple<MultiplierArch, int>> {};

TEST_P(StockArchitectureLintTest, LintsErrorFree) {
  const auto [arch, width] = GetParam();
  const TechLibrary tech = calibrated_tech_library();
  const MultiplierNetlist mult = build_multiplier(arch, width);
  const AgingScenario aging(mult.netlist, tech, BtiModel::calibrated(tech),
                            analytic_stress(mult.netlist));
  lint::TimingContext timing;
  timing.tech = &tech;
  timing.aging = &aging;
  timing.sweep_years = {0.0, 7.0};
  timing.period_ps =
      critical_path_ps(mult, tech, aging.delay_scales_at(7.0)) / 2.0 + 1.0;
  lint::LintContext ctx;
  ctx.netlist = &mult.netlist;
  ctx.multiplier = &mult;
  ctx.timing = &timing;
  ctx.consistency.vectors = 32;
  LintEngine engine;
  const LintReport report = engine.run(ctx);
  EXPECT_TRUE(report.clean()) << report.summary();
  // Sanity: the full rule set actually ran (one proved-info per timing
  // rule plus the consistency proof).
  EXPECT_GE(report.infos(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStock, StockArchitectureLintTest,
    ::testing::Combine(::testing::Values(MultiplierArch::kArray,
                                         MultiplierArch::kColumnBypass,
                                         MultiplierArch::kRowBypass),
                       ::testing::Values(16, 32)),
    [](const auto& info) {
      return std::string(arch_name(std::get<0>(info.param))) +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace agingsim
