// aginglint — rule-based netlist lint & static timing-safety analyzer.
//
// Lints generated multiplier netlists with the src/lint/ rules: structural
// rules (driver table, pin arity, dead logic, bypass-pin exclusivity),
// timing-safety rules (Razor coverage, AHL hold-count sufficiency and —
// with --hold — min-corner shadow-window hold analysis over the aged sweep,
// via the min/max multi-corner STA + the BTI aging model) and the functional
// consistency rule (netlist vs golden multiply on seeded vectors).
//
// --repair additionally runs the automatic hold-repair pass (delay-buffer
// insertion on violating short paths), re-extracts the aging scenario on
// the repaired netlist, re-lints it, and reports the inserted buffers plus
// per-output margins before/after in the JSON.
//
// Exit codes: 0 = no error-severity diagnostics (post-repair when --repair
// is given, which also requires the repair itself to be clean), 1 = at
// least one error or a failed repair, 2 = usage error. See docs/LINT.md for
// the rule catalog and JSON schema.

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/aging/prob_propagation.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/core/cli.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/lint/engine.hpp"
#include "src/lint/repair.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/obs/artifacts.hpp"
#include "src/report/json.hpp"

namespace {

using namespace agingsim;

struct Options {
  std::vector<MultiplierArch> archs{
      MultiplierArch::kArray, MultiplierArch::kColumnBypass,
      MultiplierArch::kRowBypass, MultiplierArch::kWallaceTree};
  std::vector<long> widths{16, 32};
  double period_ps = 0.0;  // 0 = auto: aged critical path / hold cycles
  std::vector<double> years{0, 1, 2, 3, 4, 5, 6, 7};
  int hold_cycles = 2;
  std::size_t vectors = 256;
  std::uint64_t seed = 0x11A7C0DEULL;
  std::vector<std::size_t> unprotected_outputs;
  std::string json_path;  // empty = no JSON; "-" = stdout
  bool verbose = false;
  bool quiet = false;
  bool hold = false;    // enable timing.hold-window
  bool repair = false;  // run the hold-repair pass (implies hold)
  double hold_margin_ps = 0.0;
  double shadow_window_cycles = -1.0;  // < 0 = RazorConfig default
};

void print_usage(std::ostream& os) {
  os << "usage: aginglint [options]\n"
        "  --arch LIST      comma list of am,cb,rb,wt (default: all four)\n"
        "  --width LIST     comma list of bit widths in [2,32] (default: "
        "16,32)\n"
        "  --period PS      clock period to lint at; 0 = auto, the minimum\n"
        "                   safe period aged_critical_path/hold_cycles + 1 ps\n"
        "                   (default: 0)\n"
        "  --years LIST     aging sweep years (default: 0..7)\n"
        "  --hold-cycles N  AHL hold-cycle budget (default: 2)\n"
        "  --vectors N      consistency-rule random vectors (default: 256)\n"
        "  --seed S         consistency-rule PRNG seed\n"
        "  --unprotect I    sever the Razor tap on output index I\n"
        "                   (repeatable; demonstrates the coverage rule)\n"
        "  --hold           enable timing.hold-window: prove every Razor-\n"
        "                   protected output's min-corner arrival clears the\n"
        "                   shadow sampling window at every aging corner\n"
        "  --hold-margin PS extra hold guard band beyond the window "
        "(default: 0)\n"
        "  --shadow-window C  shadow sampling window in cycles (default: "
        "1.0)\n"
        "  --repair         run the automatic hold-repair pass (implies\n"
        "                   --hold): insert delay buffers on violating short\n"
        "                   paths, prove logic equivalence, re-lint the\n"
        "                   repaired netlist\n"
        "  --json PATH      write the diagnostics report as JSON ('-' = "
        "stdout)\n"
        "  --list-rules     print the rule catalog and exit\n"
        "  --verbose        print info-severity diagnostics too\n"
        "  --quiet          print only the per-target summary lines\n"
        "  --help           this text\n";
}

int list_rules() {
  std::printf("%-32s %-12s %s\n", "rule", "category", "description");
  for (const lint::Rule& rule : lint::all_rules()) {
    std::printf("%-32s %-12s %s\n", std::string(rule.id).c_str(),
                std::string(lint::category_name(rule.category)).c_str(),
                std::string(rule.description).c_str());
  }
  return 0;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  cli::FlagReader args("aginglint", print_usage);
  args.value("--arch", opt.archs,
             [](std::string_view list) {
               return cli::parse_list(list, parse_arch);
             },
             "a comma list of am,cb,rb,wt");
  args.value("--width", opt.widths,
             [](std::string_view list) {
               return cli::parse_list(list, [](std::string_view w) {
                 return cli::parse_int(w, 2, 32);
               });
             },
             "a comma list of widths in [2, 32]");
  args.number("--period", opt.period_ps, 0.0);
  args.years("--years", opt.years);
  args.integer("--hold-cycles", opt.hold_cycles, 1);
  args.integer("--vectors", opt.vectors, 0);
  args.seed("--seed", opt.seed);
  args.on(
      "--unprotect",
      [&opt](std::string_view index) {
        const auto i = cli::parse_int(index, 0, INT_MAX);
        if (i) opt.unprotected_outputs.push_back(static_cast<std::size_t>(*i));
        return i.has_value();
      },
      "an integer >= 0");
  args.on("--hold", opt.hold);
  args.number("--hold-margin", opt.hold_margin_ps, 0.0);
  args.positive("--shadow-window", opt.shadow_window_cycles);
  args.on("--repair", [&opt] { opt.repair = opt.hold = true; });
  args.text("--json", opt.json_path);
  args.on("--list-rules", [] { std::exit(list_rules()); });
  args.on("--verbose", opt.verbose);
  args.on("--quiet", opt.quiet);
  args.parse(argc, argv);
  return opt;
}

struct TargetResult {
  std::string name;
  MultiplierArch arch;
  int width;
  double period_ps;
  std::size_t gates;
  std::size_t nets;
  lint::LintReport report;
  bool repaired = false;
  std::size_t errors_before_repair = 0;
  lint::HoldRepairResult repair;
};

TargetResult lint_target(const Options& opt, const TechLibrary& tech,
                         MultiplierArch arch, int width) {
  TargetResult result;
  result.arch = arch;
  result.width = width;
  result.name = std::string(arch_name(arch)) + std::to_string(width);

  MultiplierNetlist mult = build_multiplier(arch, width);
  result.gates = mult.netlist.num_gates();
  result.nets = mult.netlist.num_nets();

  // One aging scenario per target, from the zero-cost analytic stress
  // profile (deterministic, no Monte-Carlo extraction on the CLI path).
  const BtiModel bti = BtiModel::calibrated(tech);
  const AgingScenario aging(mult.netlist, tech, bti,
                            analytic_stress(mult.netlist));

  lint::TimingContext timing;
  timing.tech = &tech;
  timing.aging = &aging;
  timing.sweep_years = opt.years;
  timing.max_hold_cycles = opt.hold_cycles;
  timing.check_hold = opt.hold;
  timing.hold_margin_ps = opt.hold_margin_ps;
  if (opt.shadow_window_cycles > 0.0) {
    timing.razor.shadow_window_cycles = opt.shadow_window_cycles;
  }
  if (opt.period_ps > 0.0) {
    timing.period_ps = opt.period_ps;
  } else {
    // Auto period: the minimum the variable-latency design rule allows —
    // the worst aged critical path must fit `hold_cycles` cycles — plus
    // 1 ps so float rounding cannot sit exactly on the boundary.
    const double worst_year =
        opt.years.empty() ? 0.0
                          : *std::max_element(opt.years.begin(), opt.years.end());
    timing.period_ps =
        critical_path_ps(mult, tech, aging.delay_scales_at(worst_year)) /
            opt.hold_cycles +
        1.0;
  }
  if (!opt.unprotected_outputs.empty()) {
    timing.razor_protected.assign(mult.netlist.num_outputs(), 1);
    for (std::size_t idx : opt.unprotected_outputs) {
      if (idx < timing.razor_protected.size()) timing.razor_protected[idx] = 0;
    }
  }

  const auto run_lint = [&](const AgingScenario& scenario) {
    lint::TimingContext t = timing;
    t.aging = &scenario;
    lint::LintContext ctx;
    ctx.netlist = &mult.netlist;
    ctx.multiplier = &mult;
    ctx.timing = &t;
    ctx.consistency.vectors = opt.vectors;
    ctx.consistency.seed = opt.seed;
    return lint::run(ctx);
  };

  result.report = run_lint(aging);
  result.period_ps = timing.period_ps;

  if (opt.repair) {
    result.repaired = true;
    result.errors_before_repair = result.report.errors();
    lint::HoldRepairConfig cfg;
    cfg.equiv_vectors = opt.vectors;
    cfg.equiv_seed = opt.seed;
    result.repair = lint::repair_hold(mult.netlist, tech, timing, cfg);
    result.gates = mult.netlist.num_gates();
    result.nets = mult.netlist.num_nets();
    // The original scenario's overlays are sized for the pre-repair gate
    // count; re-extract aging on the repaired netlist (inserted buffers get
    // real stress-derived scales) and re-lint. This final report — full
    // structural + timing + consistency rule set on the repaired design —
    // is what drives the exit code.
    const AgingScenario repaired_aging(mult.netlist, tech, bti,
                                       analytic_stress(mult.netlist));
    result.report = run_lint(repaired_aging);
  }
  return result;
}

void print_target(const Options& opt, const TargetResult& t) {
  std::printf("%-6s %6zu gates, %6zu nets, T_clk %8.1f ps: %s\n",
              t.name.c_str(), t.gates, t.nets, t.period_ps,
              t.report.summary().c_str());
  if (t.repaired) {
    std::printf(
        "  repair: %d buffer(s) in %d pass(es), %zu error(s) before, "
        "hold %s, setup %s, equivalence %s\n",
        t.repair.buffers_inserted, t.repair.passes, t.errors_before_repair,
        t.repair.hold_clean ? "clean" : "VIOLATED",
        t.repair.max_clean ? "clean" : "VIOLATED",
        !t.repair.equivalence.checked ? "unchecked"
        : t.repair.equivalence.ok()  ? "proved"
                                     : "FAILED");
  }
  if (opt.quiet) return;
  for (const lint::Diagnostic& d : t.report.diagnostics) {
    if (d.severity == lint::Severity::kInfo && !opt.verbose) continue;
    std::printf("  %-7s [%s] %s\n",
                std::string(lint::severity_name(d.severity)).c_str(),
                d.rule.c_str(), d.message.c_str());
  }
}

std::string targets_json(const Options& opt,
                         const std::vector<TargetResult>& targets) {
  JsonWriter w;
  w.begin_object();
  w.key("tool").value("aginglint");
  w.key("schema_version").value(std::int64_t{1});
  w.key("hold_cycles").value(opt.hold_cycles);
  w.key("targets").begin_array();
  for (const TargetResult& t : targets) {
    w.begin_object();
    w.key("name").value(t.name);
    w.key("arch").value(arch_name(t.arch));
    w.key("width").value(t.width);
    w.key("period_ps").value(t.period_ps);
    w.key("gates").value(static_cast<std::uint64_t>(t.gates));
    w.key("nets").value(static_cast<std::uint64_t>(t.nets));
    if (t.repaired) {
      const lint::HoldRepairResult& r = t.repair;
      w.key("repair").begin_object();
      w.key("window_ps").value(r.window_ps);
      w.key("required_min_ps").value(r.required_min_ps);
      w.key("passes").value(r.passes);
      w.key("buffers_inserted").value(r.buffers_inserted);
      w.key("errors_before").value(
          static_cast<std::uint64_t>(t.errors_before_repair));
      w.key("hold_clean").value(r.hold_clean);
      w.key("max_clean").value(r.max_clean);
      w.key("clean").value(r.clean());
      w.key("equivalence").begin_object();
      w.key("checked").value(r.equivalence.checked);
      w.key("vectors").value(static_cast<std::uint64_t>(r.equivalence.vectors));
      w.key("mismatches").value(
          static_cast<std::uint64_t>(r.equivalence.mismatches));
      w.key("ok").value(r.equivalence.ok());
      w.end_object();
      w.key("outputs").begin_array();
      for (const lint::OutputHoldReport& o : r.outputs) {
        w.begin_object();
        w.key("name").value(o.name);
        w.key("razor_protected").value(o.razor_protected);
        w.key("buffers").value(o.buffers_inserted);
        w.key("min_before_ps").value(o.min_before_ps);
        w.key("max_before_ps").value(o.max_before_ps);
        w.key("min_after_ps").value(o.min_after_ps);
        w.key("max_after_ps").value(o.max_after_ps);
        w.key("hold_ok_after").value(o.hold_ok_after);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.key("report");
    t.report.write_json(w);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  const TechLibrary tech = calibrated_tech_library();
  std::vector<TargetResult> targets;
  std::size_t total_errors = 0;
  for (const int width : opt.widths) {
    for (const MultiplierArch arch : opt.archs) {
      targets.push_back(lint_target(opt, tech, arch, width));
      print_target(opt, targets.back());
      total_errors += targets.back().report.errors();
      // A repair that left hold/setup dirty or failed its equivalence proof
      // is a failure even when the post-repair report alone looks clean.
      if (targets.back().repaired && !targets.back().repair.clean()) {
        ++total_errors;
      }
    }
  }

  if (!opt.json_path.empty()) {
    const std::string json = targets_json(opt, targets);
    if (opt.json_path == "-") {
      std::cout << json << "\n";
    } else if (!obs::write_file_atomic(opt.json_path, json, "aginglint")) {
      return 2;
    }
  }

  if (total_errors != 0) {
    std::fprintf(stderr, "aginglint: %zu error-severity diagnostic(s)\n",
                 total_errors);
    return 1;
  }
  return 0;
}
