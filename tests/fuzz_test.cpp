// Differential fuzzing of the simulation substrate: random combinational
// netlists are evaluated by TimingSim (single topological pass) and by an
// independent oracle (iterate-to-fixpoint, order-independent). Any
// divergence in functional values, any sensitized arrival beyond the STA
// bound, or any structural-validation miss is a bug in the engine the whole
// reproduction stands on. Seeded adversarial inputs also drive the parsers
// of untrusted text and the decoders of persisted bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/cli.hpp"
#include "src/core/env.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/lint/engine.hpp"
#include "src/lint/repair.hpp"
#include "src/mc/mc_campaign.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/surgeon.hpp"
#include "src/netlist/techlib.hpp"
#include "src/runtime/chaos.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/run_error.hpp"
#include "src/runtime/serial.hpp"
#include "src/runtime/stats_codec.hpp"
#include "src/serve/json.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/service.hpp"
#include "src/sim/sta.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/rng.hpp"
#include "tests/temp_dir.hpp"

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
    const CornerTiming sta =
        StaEngine(nl, default_tech_library()).run_corner({});
    // settle_ps spans *all* nets; random netlists have dead-end logic
    // deeper than any marked output, so bound it by the deepest net, not
    // by the output-only critical path.
    double deepest = 0.0;
    for (double a : sta.max_arrival_ps) deepest = std::max(deepest, a);
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 20; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      const StepResult r = sim.step(pattern);
      EXPECT_LE(r.settle_ps, deepest + 1e-9);
      EXPECT_LE(r.output_settle_ps, sta.critical_path_ps + 1e-9);
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        EXPECT_LE(sim.arrival(n), sta.max_arrival_ps[n] + 1e-9) << n;
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
  return lint::run(ctx).errors();
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
        original, nl, 64, 0xF028u + trial);
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
    ASSERT_NO_THROW(report = lint::run(lint::LintContext{.netlist = &nl}))
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
    const CornerTiming sta = StaEngine(nl, tech).run_corner({});
    // Victim: the output with the deepest arrival (must be late enough that
    // halving its arrival still leaves it past the period).
    std::size_t victim = 0;
    double worst = 0.0;
    for (std::size_t i = 0; i < nl.num_outputs(); ++i) {
      const double a = sta.max_arrival_ps[nl.output_nets()[i]];
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
    ASSERT_NO_THROW(report = lint::run(ctx)) << trial;
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
std::string fuzz_text(
    Rng& rng, std::span<const std::string_view> seeds,
    std::string_view alphabet = "0123456789:.,-+xXeEabcdhinpst ") {
  const auto pick = [&] {
    return alphabet[rng.next_below(alphabet.size())];
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


// --- Env parsers ---------------------------------------------------------

// Reference decoders for the grammar src/core/env.hpp documents, written
// from the grammar rather than with strto*: digits accumulate by hand, and
// nothing skips a leading blank or takes a '+'.
std::optional<unsigned long long> ref_digits(std::string_view text,
                                             int base) {
  if (base == 0) {  // a 0x prefix selects hex, a leading 0 octal
    const bool hex = text.size() > 1 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    if (hex) text.remove_prefix(2);
    base = hex ? 16 : text.starts_with('0') ? 8 : 10;
  }
  if (text.empty()) return std::nullopt;
  unsigned long long v = 0;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    const int d = std::isdigit(u) != 0    ? c - '0'
                  : std::isxdigit(u) != 0 ? std::tolower(u) - 'a' + 10
                                          : base;
    if (d >= base) return std::nullopt;
    const auto b = static_cast<unsigned long long>(base);
    if (v > (ULLONG_MAX - static_cast<unsigned long long>(d)) / b) {
      return std::nullopt;
    }
    v = v * b + static_cast<unsigned long long>(d);
  }
  return v;
}

std::optional<long> ref_long(std::string_view text, int base) {
  const bool negative = text.starts_with('-');
  if (negative) text.remove_prefix(1);
  const auto mag = ref_digits(text, base);
  constexpr auto kMax = static_cast<unsigned long long>(LONG_MAX);
  if (!mag.has_value() || *mag > kMax + (negative ? 1 : 0)) {
    return std::nullopt;
  }
  if (!negative) return static_cast<long>(*mag);
  return *mag == 0 ? 0L : -static_cast<long>(*mag - 1) - 1;
}

std::optional<double> ref_double(std::string_view text) {
  std::size_t i = text.starts_with('-') ? 1 : 0;
  const std::string_view prefix = text.substr(i, 2);
  const bool hex = prefix == "0x" || prefix == "0X";
  if (hex) i += 2;
  const auto run = [&](auto digit) {
    const std::size_t start = i;
    while (i < text.size() && digit(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    return i - start;
  };
  const auto mantissa_digit = [hex](unsigned char c) {
    return (hex ? std::isxdigit(c) : std::isdigit(c)) != 0;
  };
  std::size_t mantissa = run(mantissa_digit);
  if (i < text.size() && text[i] == '.') {
    ++i;
    mantissa += run(mantissa_digit);
  }
  if (mantissa == 0) return std::nullopt;
  const std::string_view exponent = hex ? "pP" : "eE";
  if (i < text.size() && exponent.find(text[i]) != std::string_view::npos) {
    ++i;
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
    if (run([](unsigned char c) { return std::isdigit(c) != 0; }) == 0) {
      return std::nullopt;
    }
  }
  if (i != text.size()) return std::nullopt;
  // The literal matched; its value is the C library's, kept in range only.
  errno = 0;
  const double v = std::strtod(std::string(text).c_str(), nullptr);
  if (errno == ERANGE || !std::isfinite(v)) return std::nullopt;
  return v;
}

TEST(FuzzTest, EnvParsersFollowTheDocumentedGrammar) {
  const std::string_view seeds[] = {
      "12",    "-5",     "0x10",  "017",    "0.5",  "1e3",
      "-0.25", "0x1p3",  ".5",    "5.",     "1e-400", "batch",
      "dense", "9223372036854775807", "-9223372036854775808",
      "18446744073709551615"};
  constexpr std::string_view kAlphabet = "0123456789-+.eEpPxXabfin \t\n";
  constexpr const char* kVar = "AGINGSIM_FUZZ_ENV_PARSERS";
  static constexpr const char* kChoices[] = {"dense", "batch"};
  Rng rng(0xE4F);
  testing::internal::CaptureStderr();  // rejected values warn
  for (int iter = 0; iter < 6000; ++iter) {
    const std::string text = fuzz_text(rng, seeds, kAlphabet);
    try {
      for (const int base : {10, 0}) {
        EXPECT_EQ(env::parse_long(text, base), ref_long(text, base))
            << "'" << text << "' base " << base;
        const auto u64 = text.starts_with('-') ? std::nullopt
                                               : ref_digits(text, base);
        EXPECT_EQ(env::parse_u64(text, base), u64)
            << "'" << text << "' base " << base;
      }
      const std::optional<double> ref = ref_double(text);
      const std::optional<double> got = env::parse_double(text);
      EXPECT_EQ(got.has_value(), ref.has_value()) << "'" << text << "'";
      if (got.has_value() && ref.has_value()) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(*got),
                  std::bit_cast<std::uint64_t>(*ref))
            << "'" << text << "'";
      }

      // The readers of the environment: their fallback, or exactly the
      // in-range value the grammar gives.
      ::setenv(kVar, text.c_str(), 1);
      const std::optional<long> ref_l = ref_long(text, 10);
      const std::optional<long> want_long =
          ref_l.has_value() && *ref_l >= 1
              ? std::optional<long>(std::min(*ref_l, 64L))
              : std::nullopt;
      EXPECT_EQ(env::long_var(kVar, 1, 64), want_long) << "'" << text << "'";
      const std::optional<std::size_t> choice =
          env::choice_var(kVar, kChoices);
      EXPECT_TRUE(choice.has_value() ? text == kChoices[*choice]
                                     : text != "dense" && text != "batch")
          << "'" << text << "'";
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << text << "' threw " << e.what();
    }
  }
  ::unsetenv(kVar);
  testing::internal::GetCapturedStderr();
}

// --- Decoders of persisted bytes ----------------------------------------

// One damaged copy of a valid encoding whose leading element count is the
// `count_bytes`-byte little-endian integer at `count_at`: random bytes, a
// truncation, bit flips, or an inflated count.
std::string damage(Rng& rng, std::string bytes, std::size_t count_at,
                   std::size_t count_bytes) {
  switch (rng.next_below(4)) {
    case 0:
      bytes.resize(rng.next_below(bytes.size() + 32));
      for (char& c : bytes) c = static_cast<char>(rng.next());
      break;
    case 1:
      bytes.resize(rng.next_below(bytes.size() + 1));
      break;
    case 2:
      for (std::uint64_t flips = 1 + rng.next_below(4);
           flips > 0 && !bytes.empty(); --flips) {
        bytes[rng.next_below(bytes.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      }
      break;
    default: {
      constexpr std::uint64_t kCounts[] = {~std::uint64_t{0}, 1ull << 40,
                                           1ull << 32, 0xFFFFFFFFull,
                                           1ull << 24};
      const std::uint64_t count =
          rng.next_below(2) == 0 ? kCounts[rng.next_below(5)] : rng.next();
      for (std::size_t i = 0; i < count_bytes; ++i) {
        if (count_at + i < bytes.size()) {
          bytes[count_at + i] = static_cast<char>(count >> (8 * i));
        }
      }
    }
  }
  return bytes;
}

RunStats random_stats(Rng& rng) {
  RunStats s;
  s.ops = rng.next_below(100000);
  s.errors = rng.next_below(1000);
  s.total_cycles = rng.next();
  s.switched_to_second_block = rng.next_below(2) == 1;
  s.storm_ops = rng.next_below(50);
  s.period_ps = 1000.0 * rng.next_double();
  s.avg_latency_ps = 2000.0 * rng.next_double();
  s.edp_mw_ns2 = rng.next_double();
  return s;
}

// A decoder either decodes or throws RunError(kCorrupt): never another
// exception, and never an allocation sized by a count it has not checked.
template <typename Decode>
void expect_decodes_or_corrupt(const Decode& decode, const std::string& bytes) {
  try {
    decode(bytes);
  } catch (const runtime::RunError& e) {
    EXPECT_EQ(e.category(), runtime::ErrorCategory::kCorrupt) << e.what();
  }
}

TEST(FuzzTest, PersistedDecodersDecodeOrThrowCorrupt) {
  const auto run_stats = [](const std::string& b) {
    return runtime::decode_run_stats(b);
  };
  const auto run_stats_row = [](const std::string& b) {
    return runtime::decode_run_stats_row(b);
  };
  const auto mc_block = [](const std::string& b) {
    return mc::decode_mc_block(b);
  };
  const auto expect_corrupt = [](const auto& decode, const std::string& b) {
    try {
      decode(b);
      ADD_FAILURE() << "a count past the payload decoded";
    } catch (const runtime::RunError& e) {
      EXPECT_EQ(e.category(), runtime::ErrorCategory::kCorrupt) << e.what();
    }
  };
  // Counts that once sized an allocation before any record was read.
  expect_corrupt(mc_block, std::string("\xff\xff\xff\xff", 4));
  expect_corrupt(mc_block, std::string("\x00\x00\x00\x01", 4));
  for (const std::uint64_t count : {~0ull, 1ull << 40}) {
    runtime::ByteWriter w;
    w.u64(count);
    expect_corrupt(run_stats_row, w.data());
  }

  Rng rng(0xDEC0DE);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<RunStats> row(rng.next_below(4));
    for (RunStats& s : row) s = random_stats(rng);
    std::vector<mc::McTrialRecord> block(rng.next_below(40));
    for (mc::McTrialRecord& rec : block) {
      rec = {2000.0 * rng.next_double(), rng.next_double()};
    }
    const RunStats one = random_stats(rng);
    const std::string stats_bytes = runtime::encode_run_stats(one);
    const std::string row_bytes = runtime::encode_run_stats_row(row);
    const std::string block_bytes = mc::encode_mc_block(block);
    ASSERT_EQ(run_stats(stats_bytes), one);
    ASSERT_EQ(run_stats_row(row_bytes), row);
    ASSERT_EQ(mc_block(block_bytes), block);
    expect_decodes_or_corrupt(run_stats, damage(rng, stats_bytes, 0, 4));
    expect_decodes_or_corrupt(run_stats_row, damage(rng, row_bytes, 0, 8));
    expect_decodes_or_corrupt(mc_block, damage(rng, block_bytes, 0, 4));
  }
}

TEST(FuzzTest, DamagedCheckpointFilesAreDiscarded) {
  namespace fs = std::filesystem;
  const fs::path root = temp_path("fuzz_checkpoint_files");
  fs::remove_all(root);
  constexpr std::uint64_t kDigest = 0xF022C4EC;
  constexpr std::size_t kHeaderBytes = 40;
  const auto read = [](const fs::path& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto write = [](const fs::path& file, const std::string& bytes) {
    std::ofstream(file, std::ios::binary) << bytes;
  };
  // A segment of five records as persist() writes them, each payload
  // distinct; `ends[u]` is where unit u's record stops.
  Rng rng(0xC4EC);
  std::vector<std::string> payloads;
  std::vector<std::size_t> ends;
  std::string segment;
  {
    runtime::CheckpointStore golden(root / "golden", kDigest);
    std::size_t end = 0;
    for (std::uint64_t unit = 0; unit < 5; ++unit) {
      payloads.push_back(
          unit % 2 == 0
              ? runtime::encode_run_stats_row(std::vector<RunStats>{
                    random_stats(rng), random_stats(rng)})
              : runtime::encode_run_stats(random_stats(rng)));
      golden.persist(unit, payloads.back());
      end += kHeaderBytes + payloads.back().size();
      ends.push_back(end);
    }
    for (const auto& entry : fs::directory_iterator(root / "golden")) {
      segment = read(entry.path());
    }
    ASSERT_EQ(segment.size(), end);
  }
  const fs::path work = root / "work";
  for (int iter = 0; iter < 600; ++iter) {
    fs::remove_all(work);
    fs::create_directories(work);
    // Truncate at any offset, flip any byte, or inflate the first record's
    // payload length (offset 24, u64). [from, to) holds every changed byte.
    std::string damaged = segment;
    std::size_t from = segment.size();
    std::size_t to = segment.size();
    switch (rng.next_below(3)) {
      case 0:
        from = rng.next_below(segment.size());
        damaged.resize(from);
        break;
      case 1:
        from = rng.next_below(segment.size());
        to = from + 1;
        damaged[from] ^= static_cast<char>(1 + rng.next_below(255));
        break;
      default:
        damaged = damage(rng, segment, 24, 8);
        if (damaged != segment) from = 0;
        break;
    }
    write(work / "seg-1-0.log", damaged);
    runtime::CheckpointStore store(work, kDigest);
    runtime::CheckpointScan scan;
    testing::internal::CaptureStderr();
    ASSERT_NO_THROW(scan = store.load());
    testing::internal::GetCapturedStderr();
    std::size_t intact = 0;
    for (std::uint64_t unit = 0; unit < payloads.size(); ++unit) {
      const std::optional<std::string> got = store.restore(unit);
      if (got.has_value()) {
        EXPECT_EQ(*got, payloads[unit])
            << "iteration " << iter << ": unit " << unit
            << " restored with wrong bytes";
      }
      const std::size_t begin =
          ends[unit] - kHeaderBytes - payloads[unit].size();
      if (ends[unit] <= from || begin >= to) {  // an untouched record
        ++intact;
        EXPECT_TRUE(got.has_value()) << "iteration " << iter << ": unit "
                                     << unit << " lost";
      }
    }
    EXPECT_GE(scan.loaded, intact) << "iteration " << iter;
    if (damaged == segment) {
      EXPECT_EQ(scan.loaded, payloads.size());
      EXPECT_EQ(scan.discarded, 0u);
    }
  }
  fs::remove_all(root);
}

// --- Decoders of untrusted wire bytes ------------------------------------

// Feeds `stream` to a FrameDecoder in pieces ending at `cuts` and collects
// what it yields, the way agingd's loop does with each non-blocking read:
// take every complete frame after each piece, stop at a refused feed.
std::vector<std::string> decode_in_pieces(std::string_view stream,
                                          const std::vector<std::size_t>& cuts,
                                          bool* poisoned) {
  serve::FrameDecoder decoder;
  std::vector<std::string> payloads;
  std::size_t from = 0;
  for (const std::size_t to : cuts) {
    const bool fed = decoder.feed(stream.substr(from, to - from));
    while (auto payload = decoder.next()) payloads.push_back(*payload);
    from = to;
    if (!fed) break;
  }
  *poisoned = decoder.poisoned();
  return payloads;
}

TEST(FuzzTest, FrameDecoderYieldsTheSameFramesWhereverTheStreamSplits) {
  Rng rng(0xF4A3E);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::string> payloads(rng.next_below(8));
    std::string stream;
    for (std::string& payload : payloads) {
      payload.resize(rng.next_below(rng.next_below(8) == 0 ? 6000 : 64));
      for (char& c : payload) c = static_cast<char>(rng.next());
      stream += serve::encode_frame(payload);
    }
    // A length prefix over kMaxFrameBytes, then bytes that must never
    // decode: the stream is poisoned right after the frames before it.
    const bool oversized = rng.next_below(2) == 0;
    if (oversized) {
      const std::uint64_t len =
          serve::kMaxFrameBytes + 1 +
          rng.next_below(0xFFFFFFFFull - serve::kMaxFrameBytes);
      for (int i = 0; i < 4; ++i) stream += static_cast<char>(len >> (8 * i));
      for (std::uint64_t n = rng.next_below(32); n > 0; --n) {
        stream += static_cast<char>(rng.next());
      }
    }
    bool poisoned = false;
    EXPECT_EQ(decode_in_pieces(stream, {stream.size()}, &poisoned), payloads)
        << "iteration " << iter;
    EXPECT_EQ(poisoned, oversized) << "iteration " << iter;

    std::vector<std::size_t> cuts;
    for (std::size_t at = 0; at < stream.size();) {
      at = std::min(stream.size(),
                    at + 1 + rng.next_below(rng.next_below(2) == 0 ? 8 : 700));
      cuts.push_back(at);
    }
    EXPECT_EQ(decode_in_pieces(stream, cuts, &poisoned), payloads)
        << "iteration " << iter;
    EXPECT_EQ(poisoned, oversized) << "iteration " << iter;
  }
}

TEST(FuzzTest, MutatedEnvelopesParseOrGetABadRequestBody) {
  const std::string_view seeds[] = {
      R"({"id": 7, "method": "query", "deadline_ms": 2000,)"
      R"( "client_id": "ci-paced", "params": {"arch": "cb", "width": 8}})",
      R"({"id": 1, "method": "health"})",
      R"({"id": 18446744073709551615, "method": "campaign", "params":)"
      R"( {"stream": true,)"
      R"( "resume_cursor": {"digest": "ab", "unit_index": 2}}})",
      R"({"method": "work",)"
      R"( "params": {"spin_us": 50, "x": [1, -2.5e3, null]}})",
      R"({"id": 3, "method": "shutdown", "client_id": "a.b_c-9"})",
      R"(["\u00e9\"", {"id": -1}, 1e999, true, false])"};
  constexpr std::string_view kAlphabet = "{}[]\":,.-+0123456789eEtrufalsn\\ ";
  Rng rng(0xE47E1);
  for (int iter = 0; iter < 20000; ++iter) {
    std::string text(seeds[rng.next_below(std::size(seeds))]);
    for (std::uint64_t edits = 1 + rng.next_below(4); edits > 0; --edits) {
      const std::size_t at = rng.next_below(text.size() + 1);
      const char c = rng.next_below(4) == 0
                         ? static_cast<char>(rng.next())
                         : kAlphabet[rng.next_below(kAlphabet.size())];
      switch (rng.next_below(5)) {
        case 0: text.insert(at, 1, c); break;
        case 1: if (at < text.size()) text[at] = c; break;
        case 2: text.erase(at, rng.next_below(8)); break;
        case 3: text.resize(at); break;
        default: text.insert(at, text.substr(rng.next_below(text.size() + 1),
                                             rng.next_below(16)));
      }
    }
    std::string body;
    bool json = false;
    std::optional<serve::Request> request;
    try {
      json = serve::parse_json(text).has_value();
      request = serve::parse_request(text, &body);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << text << "' threw " << e.what();
      continue;
    }
    if (request.has_value()) {
      EXPECT_TRUE(json) << text;
      EXPECT_EQ(request->priority, serve::method_priority(request->method))
          << text;
      continue;
    }
    const std::optional<serve::JsonValue> doc = serve::parse_json(body);
    ASSERT_TRUE(doc.has_value()) << "'" << text << "' got " << body;
    EXPECT_FALSE(doc->bool_or("ok", true)) << body;
    const serve::JsonValue* error = doc->find("error");
    ASSERT_NE(error, nullptr) << body;
    EXPECT_EQ(error->str_or("code", ""), "bad_request") << body;
  }
}

// agingd parses every queueable request's params on its event loop, before
// admission (Service::parse). Mutated params of all three methods — keys
// dropped or duplicated, values of a wrong JSON type, at a bound or one
// past it, at a 64-bit extreme, or nested junk — must parse into params
// whose every field lies in its documented range, or into a bad_request
// message, and never throw.
TEST(FuzzTest, MutatedParamsParseInRangeOrGetABadRequestMessage) {
  using Members = std::vector<std::pair<std::string, std::string>>;
  const std::pair<std::string_view, Members> seeds[] = {
      {"query",
       {{"arch", R"("cb")"}, {"width", "16"}, {"years", "3"},
        {"ops", "2000"}, {"period_frac", "0.58"}, {"skip", "7"},
        {"adaptive", "true"}, {"seed", "42"}}},
      {"campaign",
       {{"arch", R"("rb")"}, {"width", "8"}, {"trials", "32"},
        {"ops", "1000"}, {"sites", "2"}, {"kind", R"("transient")"},
        {"delay_factor", "8"}, {"period_frac", "0.58"}, {"seed", "64023"},
        {"checkpoint", "false"}, {"stream", "true"}, {"stream_every", "4"},
        {"resume_cursor", R"({"digest": "00ab", "unit_index": 3})"}}},
      {"work", {{"spin_us", "1000"}}},
  };
  const std::string_view values[] = {
      // Each documented bound and one past it.
      "-1", "0", "1", "2", "6", "7", "8", "31", "32", "33", "50", "51", "63",
      "64", "65", "4096", "4097", "200000", "200001", "10000000", "10000001",
      "0.0", "-0.0", "4.0", "4.0000001", "50.0000001", "1e-300",
      // 64-bit extremes and past them.
      "9223372036854775807", "-9223372036854775808", "18446744073709551615",
      "18446744073709551616", "1e308", "-1e308",
      // Wrong types, names and nested junk.
      "null", "true", "false", R"("")", R"("16")", R"("am")", R"("wt")",
      R"("stuck1")", R"("bogus")", "[]", "[1, 2]", "{}",
      R"({"a": [1, {"b": null}]})", R"([[[{"width": 8}]]])",
      R"({"digest": 7, "unit_index": "2"})", R"({"digest": "00ab"})",
      R"({"digest": "z", "unit_index": 33})"};
  const auto any_value = [&](Rng& rng) {
    return std::string(values[rng.next_below(std::size(values))]);
  };
  Rng rng(0xD00E);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const auto& [method, seed] = seeds[rng.next_below(std::size(seeds))];
    Members members = seed;
    for (std::uint64_t edits = 1 + rng.next_below(4); edits > 0; --edits) {
      if (members.empty()) break;
      const std::size_t at = rng.next_below(members.size());
      switch (rng.next_below(3)) {
        case 0: members.erase(members.begin() + static_cast<long>(at)); break;
        case 1: {
          auto copy = members[at];
          if (rng.next_below(2) == 0) copy.second = any_value(rng);
          members.insert(members.begin() + static_cast<long>(
                                               rng.next_below(members.size())),
                         std::move(copy));
          break;
        }
        default: members[at].second = any_value(rng);
      }
    }
    std::string text = "{";
    for (const auto& [key, value] : members) {
      if (text.size() > 1) text += ", ";
      text += "\"" + key + "\": " + value;
    }
    text += "}";
    serve::Request request;
    request.method = std::string(method);
    const std::optional<serve::JsonValue> doc = serve::parse_json(text);
    ASSERT_TRUE(doc.has_value()) << text;
    request.params = *doc;
    std::string error;
    std::optional<serve::RequestParams> parsed;
    try {
      parsed = serve::Service::parse(request, error);
    } catch (const std::exception& e) {
      ADD_FAILURE() << method << " " << text << " threw " << e.what();
      continue;
    }
    if (!parsed.has_value()) {
      EXPECT_FALSE(error.empty()) << method << " " << text;
      continue;
    }
    ++accepted;
    SCOPED_TRACE(std::string(method) + " " + text);
    const auto expect_circuit = [](const serve::CircuitParams& c) {
      EXPECT_EQ(parse_arch(c.arch_name), c.arch);
      EXPECT_NE(c.arch, MultiplierArch::kWallaceTree);
      EXPECT_GE(c.width, 2);
      EXPECT_LE(c.width, 32);
    };
    if (const auto* q = std::get_if<serve::QueryParams>(&*parsed)) {
      expect_circuit(*q);
      EXPECT_GE(q->years, 0.0);
      EXPECT_LE(q->years, 50.0);
      EXPECT_GE(q->ops, 1u);
      EXPECT_LE(q->ops, 200000u);
      EXPECT_GT(q->period_frac, 0.0);
      EXPECT_LE(q->period_frac, 4.0);
      EXPECT_GE(q->skip, 1);
      EXPECT_LT(q->skip, q->width);
    } else if (const auto* c = std::get_if<serve::CampaignParams>(&*parsed)) {
      expect_circuit(*c);
      const FaultCampaignConfig& f = c->faults;
      EXPECT_GE(f.trials, 1);
      EXPECT_LE(f.trials, 4096);
      EXPECT_GE(c->ops, 1u);
      EXPECT_LE(c->ops, 200000u);
      EXPECT_GE(f.sites_per_trial, 1);
      EXPECT_LE(f.sites_per_trial, 64);
      EXPECT_EQ(parse_fault_kind(c->kind_name), f.kind);
      EXPECT_GT(f.delay_factor, 0.0);
      EXPECT_GT(c->period_frac, 0.0);
      EXPECT_LE(c->period_frac, 4.0);
      EXPECT_GE(c->stream_every, 1);
      EXPECT_LE(c->cursor_units, static_cast<std::uint64_t>(f.trials) + 1);
      if (c->cursor_digest.empty()) {
        EXPECT_EQ(c->cursor_units, 0u);
      }
    } else {
      const auto& w = std::get<serve::WorkParams>(*parsed);
      EXPECT_GE(w.spin_us, 0);
      EXPECT_LE(w.spin_us, 10'000'000);
    }
  }
  // The loop reaches both outcomes often.
  EXPECT_GT(accepted, 2000u);
  EXPECT_LT(accepted, 18000u);
}

}  // namespace
}  // namespace agingsim
