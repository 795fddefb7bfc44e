// Differential fuzzing of the simulation substrate: random combinational
// netlists are evaluated by TimingSim (single topological pass) and by an
// independent oracle (iterate-to-fixpoint, order-independent). Any
// divergence in functional values, any sensitized arrival beyond the STA
// bound, or any structural-validation miss is a bug in the engine the whole
// reproduction stands on.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cli.hpp"
#include "src/lint/engine.hpp"
#include "src/lint/repair.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/surgeon.hpp"
#include "src/netlist/techlib.hpp"
#include "src/runtime/chaos.hpp"
#include "src/sim/sta.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

// Random DAG netlist: gates draw inputs uniformly from all earlier nets.
Netlist random_netlist(Rng& rng, int num_inputs, int num_gates) {
  Netlist nl;
  for (int i = 0; i < num_inputs; ++i) {
    nl.add_input("in" + std::to_string(i));
  }
  constexpr CellKind kKinds[] = {
      CellKind::kBuf,  CellKind::kInv,   CellKind::kAnd2, CellKind::kNand2,
      CellKind::kOr2,  CellKind::kNor2,  CellKind::kXor2, CellKind::kXnor2,
      CellKind::kAnd3, CellKind::kOr3,   CellKind::kMux2, CellKind::kTbuf,
      CellKind::kTie0, CellKind::kTie1};
  for (int g = 0; g < num_gates; ++g) {
    const CellKind kind =
        kKinds[rng.next_below(sizeof(kKinds) / sizeof(kKinds[0]))];
    const int n_in = cell_traits(kind).num_inputs;
    std::vector<NetId> ins;
    for (int k = 0; k < n_in; ++k) {
      ins.push_back(static_cast<NetId>(rng.next_below(nl.num_nets())));
    }
    nl.add_gate(kind, ins);
  }
  // Mark the last few nets as outputs.
  for (int i = 0; i < 4 && i < static_cast<int>(nl.num_nets()); ++i) {
    nl.mark_output(static_cast<NetId>(nl.num_nets() - 1 -
                                      static_cast<std::size_t>(i)),
                   "out" + std::to_string(i));
  }
  return nl;
}

/// Order-independent oracle: re-evaluates every gate until nothing changes.
/// Keeper state (TBUF) is carried across steps in `values`.
void fixpoint_eval(const Netlist& nl, std::span<const Logic> inputs,
                   std::vector<Logic>& values) {
  const auto in_nets = nl.input_nets();
  for (std::size_t i = 0; i < in_nets.size(); ++i) {
    values[in_nets[i]] = inputs[i];
  }
  bool changed = true;
  int rounds = 0;
  while (changed) {
    changed = false;
    ASSERT_LT(++rounds, 1000) << "oracle failed to converge";
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      const Gate& gate = nl.gate(g);
      std::vector<Logic> in_vals;
      for (NetId in : nl.gate_inputs(g)) in_vals.push_back(values[in]);
      const Logic next = eval_cell(gate.kind, in_vals, values[gate.out]);
      if (next != values[gate.out]) {
        values[gate.out] = next;
        changed = true;
      }
    }
  }
}

TEST(FuzzTest, TimingSimMatchesFixpointOracle) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 40; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 60);
    ASSERT_NO_THROW(nl.validate());
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> oracle(nl.num_nets(), Logic::kX);
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 30; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      sim.step(pattern);
      fixpoint_eval(nl, pattern, oracle);
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        ASSERT_EQ(sim.value(n), oracle[n])
            << "trial " << trial << " step " << step << " net " << n;
      }
    }
  }
}

TEST(FuzzTest, SensitizedArrivalsNeverExceedSta) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 25; ++trial) {
    const Netlist nl = random_netlist(rng, 5, 80);
    const StaResult sta = run_sta(nl, default_tech_library());
    // settle_ps spans *all* nets; random netlists have dead-end logic
    // deeper than any marked output, so bound it by the deepest net, not
    // by the output-only critical path.
    double deepest = 0.0;
    for (double a : sta.arrival_ps) deepest = std::max(deepest, a);
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 20; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      const StepResult r = sim.step(pattern);
      EXPECT_LE(r.settle_ps, deepest + 1e-9);
      EXPECT_LE(r.output_settle_ps, sta.critical_path_ps + 1e-9);
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        EXPECT_LE(sim.arrival(n), sta.arrival_ps[n] + 1e-9) << n;
      }
    }
  }
}

TEST(FuzzTest, RepeatedPatternIsAlwaysSilent) {
  // Idempotence: re-applying the same pattern must produce no activity and
  // no delay, whatever the netlist (including tri-state keepers).
  Rng rng(0xF024);
  for (int trial = 0; trial < 25; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 50);
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 10; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      sim.step(pattern);
      const StepResult again = sim.step(pattern);
      EXPECT_EQ(again.toggles, 0u);
      EXPECT_DOUBLE_EQ(again.settle_ps, 0.0);
      EXPECT_DOUBLE_EQ(again.switched_cap_ff, 0.0);
    }
  }
}

TEST(FuzzTest, DensityIsFiniteAndNonNegative) {
  Rng rng(0xF025);
  for (int trial = 0; trial < 20; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 70);
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 15; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      const StepResult r = sim.step(pattern);
      EXPECT_GE(r.switched_cap_ff, 0.0);
      EXPECT_TRUE(std::isfinite(r.switched_cap_ff));
    }
  }
}

// ---------------------------------------------------------------------------
// Lint fuzzing: mutate valid random netlists the way buggy generators would
// (dropped pins, duplicated drivers, out-of-library kinds, combinational
// back-edges, dangling outputs, severed Razor taps) and require the lint
// engine to (a) never crash and (b) always flag the injected defect.
// ---------------------------------------------------------------------------

std::size_t lint_errors(const Netlist& nl) {
  lint::LintContext ctx;
  ctx.netlist = &nl;
  return lint::LintEngine().run(ctx).errors();
}

TEST(FuzzTest, LintFlagsEveryInjectedStructuralDefect) {
  Rng rng(0xF026);
  int injected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Netlist nl = random_netlist(rng, 6, 40);
    ASSERT_EQ(lint_errors(nl), 0u) << "baseline must be clean, trial "
                                   << trial;
    NetlistSurgeon surgeon(nl);
    const auto mutation = rng.next_below(5);
    // Mutations needing a gate with at least one pin skip tie-only picks.
    const GateId g = static_cast<GateId>(rng.next_below(nl.num_gates()));
    switch (mutation) {
      case 0: {  // dropped pin (every cell kind has a fixed arity)
        if (nl.gate(g).in_count == 0) continue;
        surgeon.set_gate_pin_count(
            g, static_cast<std::uint16_t>(nl.gate(g).in_count - 1));
        break;
      }
      case 1: {  // duplicated driver: a second net claims gate g
        const NetId victim =
            static_cast<NetId>(rng.next_below(nl.num_nets()));
        if (victim == nl.gate(g).out) continue;
        surgeon.set_driver(victim, static_cast<std::int32_t>(g));
        break;
      }
      case 2:  // out-of-library cell kind
        surgeon.set_gate_kind(g, CellKind::kCount);
        break;
      case 3: {  // combinational back-edge: gate reads its own output
        if (nl.gate(g).in_count == 0) continue;
        surgeon.set_pin(nl.gate(g).in_begin, nl.gate(g).out);
        break;
      }
      default:  // dangling output
        surgeon.set_output_net(0, static_cast<NetId>(nl.num_nets() + 99));
        break;
    }
    ++injected;
    std::size_t errors = 0;
    ASSERT_NO_THROW(errors = lint_errors(nl))
        << "lint crashed on mutation " << mutation << " trial " << trial;
    EXPECT_GE(errors, 1u) << "mutation " << mutation << " undetected, trial "
                          << trial;
  }
  // The skip branches (tie cells, self-aliased victim) must not hollow the
  // test out.
  EXPECT_GE(injected, 40);
}

// The surgeon's *repair* primitives are the dual of its corruption
// primitives: random benign buffer insertions (mid-graph, with full
// renumbering, and at endpoints) must never trip a single lint rule and
// must preserve the logic function exactly — the guarantee the hold-repair
// pass builds on.
TEST(FuzzTest, BenignBufferInsertionsStayLintCleanAndEquivalent) {
  Rng rng(0xF028);
  for (int trial = 0; trial < 30; ++trial) {
    Netlist nl = random_netlist(rng, 6, 40);
    ASSERT_EQ(lint_errors(nl), 0u) << "baseline must be clean, trial "
                                   << trial;
    const Netlist original = nl;
    for (int m = 0; m < 4; ++m) {
      if (rng.next_below(4) == 0) {
        NetlistSurgeon(nl).insert_output_buffer(
            rng.next_below(nl.num_outputs()),
            static_cast<int>(1 + rng.next_below(3)));
        continue;
      }
      const GateId g = static_cast<GateId>(rng.next_below(nl.num_gates()));
      if (nl.gate(g).in_count == 0) continue;
      const NetId in = nl.gate_inputs(g)[rng.next_below(nl.gate(g).in_count)];
      NetlistSurgeon(nl).insert_buffer(in, g,
                                       static_cast<int>(1 + rng.next_below(3)));
    }
    ASSERT_NO_THROW(nl.validate()) << "trial " << trial;
    EXPECT_EQ(lint_errors(nl), 0u) << "benign mutation flagged, trial "
                                   << trial;
    const lint::EquivalenceSummary eq = lint::check_logic_equivalence(
        original, nl, default_tech_library(), 64, 0xF028u + trial);
    EXPECT_TRUE(eq.ok()) << "logic changed, trial " << trial << " ("
                         << eq.mismatches << " lanes)";
  }
}

TEST(FuzzTest, LintEngineNeverCrashesOnRandomMutants) {
  Rng rng(0xF027);
  for (int trial = 0; trial < 40; ++trial) {
    Netlist nl = random_netlist(rng, 5, 30);
    NetlistSurgeon surgeon(nl);
    for (int m = 0; m < 3; ++m) {
      const GateId g = static_cast<GateId>(rng.next_below(nl.num_gates()));
      const NetId anywhere =
          static_cast<NetId>(rng.next_below(nl.num_nets() + 20));
      switch (rng.next_below(7)) {
        case 0:
          surgeon.set_gate_kind(g, static_cast<CellKind>(rng.next_below(20)));
          break;
        case 1:
          surgeon.set_gate_pin_count(
              g, static_cast<std::uint16_t>(rng.next_below(6)));
          break;
        case 2:
          surgeon.set_gate_pin_begin(
              g, static_cast<std::uint32_t>(rng.next_below(nl.num_pins() + 30)));
          break;
        case 3:
          if (nl.num_pins() != 0) {
            surgeon.set_pin(rng.next_below(nl.num_pins()), anywhere);
          }
          break;
        case 4:
          surgeon.set_driver(
              static_cast<NetId>(rng.next_below(nl.num_nets())),
              static_cast<std::int32_t>(rng.next_below(nl.num_gates() + 3)) -
                  2);
          break;
        case 5:
          surgeon.set_gate_out(g, anywhere);
          break;
        default:
          surgeon.set_output_net(rng.next_below(nl.num_outputs()), anywhere);
          break;
      }
    }
    lint::LintReport report;
    ASSERT_NO_THROW(report = lint::LintEngine().run(
                        lint::LintContext{.netlist = &nl}))
        << "trial " << trial;
    // Whatever happened, the report must be internally consistent.
    EXPECT_EQ(report.errors() + report.warnings() + report.infos(),
              report.diagnostics.size());
  }
}

TEST(FuzzTest, LintFlagsSeveredRazorTapOnRandomNetlists) {
  Rng rng(0xF028);
  const TechLibrary& tech = default_tech_library();
  int effective = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 60);
    const StaResult sta = run_sta(nl, tech);
    // Victim: the output with the deepest arrival (must be late enough that
    // halving its arrival still leaves it past the period).
    std::size_t victim = 0;
    double worst = 0.0;
    for (std::size_t i = 0; i < nl.num_outputs(); ++i) {
      const double a = sta.arrival_ps[nl.output_nets()[i]];
      if (a > worst) {
        worst = a;
        victim = i;
      }
    }
    if (worst <= 0.0) continue;  // all outputs are tie cells; nothing late
    ++effective;
    lint::TimingContext timing;
    timing.tech = &tech;
    timing.period_ps = worst / 2.0;
    timing.razor_protected.assign(nl.num_outputs(), 1);
    timing.razor_protected[victim] = 0;
    lint::LintContext ctx;
    ctx.netlist = &nl;
    ctx.timing = &timing;
    lint::LintReport report;
    ASSERT_NO_THROW(report = lint::LintEngine().run(ctx)) << trial;
    bool flagged = false;
    for (const auto& d : report.diagnostics) {
      if (d.rule == "timing.razor-coverage" &&
          d.severity == lint::Severity::kError &&
          d.net == nl.output_nets()[victim]) {
        flagged = true;
      }
    }
    EXPECT_TRUE(flagged) << "severed tap on output " << victim
                         << " undetected, trial " << trial;
  }
  EXPECT_GE(effective, 15);
}

// --- Shared parsers: the chaos-spec splitter and the flag reader ---------

/// A fuzz input: a random string over the grammar's own characters, or one
/// of `seeds` with a few characters replaced, inserted or deleted.
std::string fuzz_text(Rng& rng, std::span<const std::string_view> seeds) {
  static constexpr std::string_view kAlphabet =
      "0123456789:.,-+xXeEabcdhinpst ";
  const auto pick = [&] {
    return kAlphabet[rng.next_below(kAlphabet.size())];
  };
  std::string text;
  if (rng.next_below(3) == 0) {
    const std::size_t len = rng.next_below(12);
    for (std::size_t i = 0; i < len; ++i) text += pick();
    return text;
  }
  text = std::string(seeds[rng.next_below(seeds.size())]);
  const std::uint64_t edits = rng.next_below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.next_below(text.size() + 1);
    switch (rng.next_below(3)) {
      case 0: text.insert(at, 1, pick()); break;
      case 1: if (at < text.size()) text[at] = pick(); break;
      default: if (at < text.size()) text.erase(at, 1); break;
    }
  }
  return text;
}

TEST(FuzzTest, ChaosSpecsParseInRangeOrReturnTheDocumentedError) {
  struct EntryPoint {
    std::string_view allowed, default_actions;
    int seed_base;
  };
  // AGINGSIM_CHAOS and AGINGSIM_SERVE_CHAOS.
  constexpr EntryPoint kEntryPoints[] = {{"tpsc", "t", 0}, {"tbsd", "tbs", 10}};
  const std::string_view seeds[] = {"7:0.3:tbs", "0x10:1:psc", "42:0.25",
                                    "1:0:t", "11:0.2:c", "5:0.15:ts"};
  const std::set<std::string> errors = {
      "need 2 or 3 colon-separated fields", "bad seed",
      "rate must be a number in [0, 1]", "empty actions field"};
  Rng rng(0xC4A05);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string spec = fuzz_text(rng, seeds);
    for (const EntryPoint& entry : kEntryPoints) {
      std::string error;
      const auto parsed = runtime::split_chaos_spec(
          spec, entry.allowed, entry.default_actions, entry.seed_base, &error);
      if (parsed) {
        EXPECT_GE(parsed->rate, 0.0) << spec;
        EXPECT_LE(parsed->rate, 1.0) << spec;
        ASSERT_FALSE(parsed->actions.empty()) << spec;
        for (const char c : parsed->actions) {
          EXPECT_NE(entry.allowed.find(c), std::string_view::npos) << spec;
        }
      } else {
        EXPECT_TRUE(errors.count(error) == 1 ||
                    error.rfind("unknown action '", 0) == 0)
            << spec << " -> " << error;
      }
    }
    std::string error;
    if (!runtime::ChaosPolicy::parse(spec, &error)) {
      EXPECT_EQ(error.rfind("chaos spec '", 0), 0u) << spec;
    }
  }
}

TEST(FuzzTest, FlagValuesParseInRangeOrReturnTheDocumentedError) {
  struct Options {
    int width = 16;
    double factor = 8.0;
    double fraction = 0.99;
    std::uint64_t seed = 0;
    std::vector<double> years = {0.0, 7.0};
    std::string mode = "closed";
  };
  const std::string_view flags[] = {"--width", "--factor", "--fraction",
                                    "--seed",  "--years",  "--mode",
                                    "--bogus", "-h"};
  const std::string_view seeds[] = {"16", "0x10", "8.0", "0.5", "1e-3",
                                    "0,3.5,7", "closed", "open", "-1"};
  Rng rng(0xF1A65);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::string> args = {"tool"};
    const std::uint64_t tokens = 1 + rng.next_below(6);
    for (std::uint64_t t = 0; t < tokens; ++t) {
      args.emplace_back(rng.next_below(2) == 0
                            ? std::string(flags[rng.next_below(8)])
                            : fuzz_text(rng, seeds));
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());

    Options opt;
    cli::FlagReader reader("tool", [](std::ostream&) {});
    reader.integer("--width", opt.width, 2, 32);
    reader.positive("--factor", opt.factor);
    reader.number("--fraction", opt.fraction, 0.0, 1.0);
    reader.seed("--seed", opt.seed);
    reader.years("--years", opt.years);
    reader.choice("--mode", opt.mode, {"closed", "open"});
    const auto outcome = reader.apply(static_cast<int>(argv.size()),
                                      argv.data());
    // Whatever applied before a stop is in range, and so is everything
    // after a clean walk.
    EXPECT_GE(opt.width, 2);
    EXPECT_LE(opt.width, 32);
    EXPECT_TRUE(std::isfinite(opt.factor) && opt.factor > 0.0);
    EXPECT_TRUE(opt.fraction >= 0.0 && opt.fraction <= 1.0);
    ASSERT_FALSE(opt.years.empty());
    for (const double y : opt.years) EXPECT_TRUE(std::isfinite(y) && y >= 0);
    EXPECT_TRUE(opt.mode == "closed" || opt.mode == "open");
    if (!outcome.help && !outcome.error.empty()) {
      const std::string& e = outcome.error;
      EXPECT_TRUE(e.rfind("unknown option '", 0) == 0 ||
                  e.ends_with(" needs a value") ||
                  (e.find(" wants ") != std::string::npos &&
                   e.ends_with("'")))
          << e;
    }
  }
}

}  // namespace
}  // namespace agingsim
