#include "src/lint/structural.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/lint/rule.hpp"
#include "src/netlist/netlist.hpp"

namespace agingsim::lint {
namespace {

// ---------------------------------------------------------------------------
// Raw-safety helpers. Structural rules run over deliberately corrupted
// netlists (the fuzz suite uses NetlistSurgeon), so every array access is
// bounds-checked here instead of trusting the construction invariants the
// rules exist to re-prove.
// ---------------------------------------------------------------------------

bool kind_valid(const Gate& g) noexcept { return g.kind < CellKind::kCount; }

bool pins_in_bounds(const Netlist& nl, const Gate& g) noexcept {
  return g.in_begin <= nl.num_pins() &&
         g.in_count <= nl.num_pins() - g.in_begin;
}

/// True when every gate's pin window, pin value and output net are in range
/// and every registered output exists — the graph-walking warning rules
/// (observability, fanout) only run on netlists that pass this, since the
/// error rules have already reported the corruption.
bool graph_walk_safe(const Netlist& nl) {
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gt = nl.gate(g);
    if (!pins_in_bounds(nl, gt) || gt.out >= nl.num_nets()) return false;
    for (NetId in : nl.gate_inputs(g)) {
      if (in >= nl.num_nets()) return false;
    }
  }
  return std::all_of(nl.output_nets().begin(), nl.output_nets().end(),
                     [&](NetId o) { return o < nl.num_nets(); });
}

/// Per-net consumer (reader) counts over valid pins only.
std::vector<std::uint32_t> consumer_counts(const Netlist& nl) {
  std::vector<std::uint32_t> counts(nl.num_nets(), 0);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gt = nl.gate(g);
    if (!pins_in_bounds(nl, gt)) continue;
    for (NetId in : nl.gate_inputs(g)) {
      if (in < nl.num_nets()) ++counts[in];
    }
  }
  return counts;
}

std::vector<std::uint8_t> output_net_mask(const Netlist& nl) {
  std::vector<std::uint8_t> is_output(nl.num_nets(), 0);
  for (NetId o : nl.output_nets()) {
    if (o < nl.num_nets()) is_output[o] = 1;
  }
  return is_output;
}

void emit(std::vector<Diagnostic>& out, Severity severity,
          std::string_view rule, std::string message, GateId gate = kNoGate,
          NetId net = kInvalidNet) {
  out.push_back(Diagnostic{severity, std::string(rule), std::move(message),
                           gate, net});
}

// ---------------------------------------------------------------------------
// structural.net-driver — the driver table is the netlist's ground truth
// (simulators index it directly); any inconsistency means gates read or
// write the wrong nets.
// ---------------------------------------------------------------------------
void check_net_driver(const LintContext& ctx, std::string_view id,
                      std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  if (nl.num_nets() != nl.num_inputs() + nl.num_gates()) {
    emit(out, Severity::kError, id,
         "net/driver bookkeeping mismatch: " + std::to_string(nl.num_nets()) +
             " nets != " + std::to_string(nl.num_inputs()) + " inputs + " +
             std::to_string(nl.num_gates()) + " gates");
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const std::int32_t d = nl.driver_of(n);
    if (d < -1 || d >= static_cast<std::int32_t>(nl.num_gates())) {
      emit(out, Severity::kError, id,
           describe_net(nl, n) + " names nonexistent driver gate " +
               std::to_string(d),
           kNoGate, n);
    } else if (d >= 0 && nl.gate(static_cast<GateId>(d)).out != n) {
      emit(out, Severity::kError, id,
           describe_net(nl, n) + " claims driver " +
               describe_gate(nl, static_cast<GateId>(d)) +
               ", but that gate drives " +
               describe_net(nl, nl.gate(static_cast<GateId>(d)).out) +
               " (duplicated or stolen driver)",
           static_cast<GateId>(d), n);
    }
  }
  for (NetId in : nl.input_nets()) {
    if (in < nl.num_nets() && nl.driver_of(in) != -1) {
      emit(out, Severity::kError, id,
           "primary input " + describe_net(nl, in) +
               " has a gate driver (driver " +
               std::to_string(nl.driver_of(in)) + ")",
           kNoGate, in);
    }
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const NetId o = nl.gate(g).out;
    if (o >= nl.num_nets()) {
      emit(out, Severity::kError, id,
           describe_gate(nl, g) + " drives nonexistent " +
               describe_net(nl, o),
           g, o);
    } else if (nl.driver_of(o) != static_cast<std::int32_t>(g)) {
      emit(out, Severity::kError, id,
           describe_gate(nl, g) + " believes it drives " +
               describe_net(nl, o) + ", whose registered driver is gate " +
               std::to_string(nl.driver_of(o)),
           g, o);
    }
  }
}

// ---------------------------------------------------------------------------
// structural.cell-kind — a gate whose kind is outside the cell library
// cannot be evaluated (traits/delay lookups would read out of bounds).
// ---------------------------------------------------------------------------
void check_cell_kind(const LintContext& ctx, std::string_view id,
                     std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    if (!kind_valid(nl.gate(g))) {
      emit(out, Severity::kError, id,
           "gate " + std::to_string(g) + " has invalid cell kind " +
               std::to_string(static_cast<int>(nl.gate(g).kind)),
           g);
    }
  }
}

// ---------------------------------------------------------------------------
// structural.pin-arity — pin windows must match the cell's arity and point
// at existing nets; a dropped or rewired pin changes the computed function.
// ---------------------------------------------------------------------------
void check_pin_arity(const LintContext& ctx, std::string_view id,
                     std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gt = nl.gate(g);
    if (!pins_in_bounds(nl, gt)) {
      emit(out, Severity::kError, id,
           describe_gate(nl, g) + " pin window [" +
               std::to_string(gt.in_begin) + ", " +
               std::to_string(gt.in_begin + gt.in_count) +
               ") exceeds the pin array (" + std::to_string(nl.num_pins()) +
               " pins)",
           g);
      continue;
    }
    if (kind_valid(gt) &&
        gt.in_count != cell_traits(gt.kind).num_inputs) {
      emit(out, Severity::kError, id,
           describe_gate(nl, g) + " has " + std::to_string(gt.in_count) +
               " pins, cell expects " +
               std::to_string(cell_traits(gt.kind).num_inputs),
           g);
    }
    for (NetId in : nl.gate_inputs(g)) {
      if (in >= nl.num_nets()) {
        emit(out, Severity::kError, id,
             describe_gate(nl, g) + " reads nonexistent " +
                 describe_net(nl, in),
             g, in);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// structural.topo-order — gate ids must be a topological order (inputs
// strictly earlier than outputs); the simulators' single forward pass and
// the acyclicity guarantee both rest on it.
// ---------------------------------------------------------------------------
void check_topo_order(const LintContext& ctx, std::string_view id,
                      std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gt = nl.gate(g);
    if (!pins_in_bounds(nl, gt)) continue;  // pin-arity reports this
    for (NetId in : nl.gate_inputs(g)) {
      if (in < nl.num_nets() && in >= gt.out) {
        emit(out, Severity::kError, id,
             describe_gate(nl, g) + " reads " + describe_net(nl, in) +
                 ", which is not earlier than its output " +
                 describe_net(nl, gt.out) +
                 " (cycle or forward reference)",
             g, in);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// structural.output-dangling / structural.output-duplicate — the primary
// output table is what Razor banks, golden checks and output_bits() read.
// ---------------------------------------------------------------------------
void check_output_dangling(const LintContext& ctx, std::string_view id,
                           std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  for (std::size_t i = 0; i < nl.num_outputs(); ++i) {
    const NetId o = nl.output_nets()[i];
    if (o >= nl.num_nets()) {
      emit(out, Severity::kError, id,
           "primary output " + nl.output_name(i) + " (index " +
               std::to_string(i) + ") names nonexistent net " +
               std::to_string(o),
           kNoGate, o);
    }
  }
}

void check_output_duplicate(const LintContext& ctx, std::string_view id,
                            std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  std::unordered_map<NetId, std::size_t> first_by_net;
  std::unordered_map<std::string, std::size_t> first_by_name;
  for (std::size_t i = 0; i < nl.num_outputs(); ++i) {
    const NetId o = nl.output_nets()[i];
    if (auto [it, inserted] = first_by_net.try_emplace(o, i); !inserted) {
      emit(out, Severity::kError, id,
           describe_net(nl, o) + " is registered as both output " +
               nl.output_name(it->second) + " and output " +
               nl.output_name(i),
           kNoGate, o);
    }
    if (auto [it, inserted] = first_by_name.try_emplace(nl.output_name(i), i);
        !inserted) {
      emit(out, Severity::kError, id,
           "output name " + nl.output_name(i) +
               " is registered twice (indices " +
               std::to_string(it->second) + " and " + std::to_string(i) +
               ")",
           kNoGate, o < nl.num_nets() ? o : kInvalidNet);
    }
  }
}

// ---------------------------------------------------------------------------
// structural.fanout-free-net / structural.unobservable-gate /
// structural.unused-input — logic no primary output can see. Warnings, not
// errors: generators legitimately leave dead carries (the Wallace tree's
// folded columns), but each one is wasted area/power worth knowing about.
// ---------------------------------------------------------------------------
void check_fanout_free_net(const LintContext& ctx, std::string_view id,
                           std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  if (!graph_walk_safe(nl)) return;
  const auto consumers = consumer_counts(nl);
  const auto is_output = output_net_mask(nl);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const NetId o = nl.gate(g).out;
    if (consumers[o] == 0 && !is_output[o]) {
      emit(out, Severity::kWarning, id,
           describe_gate(nl, g) + " drives " + describe_net(nl, o) +
               ", which has no consumers and is not a primary output",
           g, o);
    }
  }
}

void check_unobservable_gate(const LintContext& ctx, std::string_view id,
                             std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  if (!graph_walk_safe(nl)) return;
  // Reverse reachability in one backward pass: gate ids are topological,
  // so scanning gates in descending id order propagates observability
  // from the outputs through every path.
  std::vector<std::uint8_t> observable = output_net_mask(nl);
  for (std::size_t gi = nl.num_gates(); gi-- > 0;) {
    const GateId g = static_cast<GateId>(gi);
    if (!observable[nl.gate(g).out]) continue;
    for (NetId in : nl.gate_inputs(g)) observable[in] = 1;
  }
  const auto consumers = consumer_counts(nl);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const NetId o = nl.gate(g).out;
    // Zero-consumer dead ends are fanout-free-net findings; this rule
    // flags the cones feeding them.
    if (!observable[o] && consumers[o] != 0) {
      emit(out, Severity::kWarning, id,
           describe_gate(nl, g) + " drives " + describe_net(nl, o) +
               ", which reaches no primary output",
           g, o);
    }
  }
}

void check_unused_input(const LintContext& ctx, std::string_view id,
                        std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  if (!graph_walk_safe(nl)) return;
  const auto consumers = consumer_counts(nl);
  const auto is_output = output_net_mask(nl);
  for (NetId in : nl.input_nets()) {
    if (consumers[in] == 0 && !is_output[in]) {
      emit(out, Severity::kWarning, id,
           "primary input " + describe_net(nl, in) +
               " is read by nothing and is not an output",
           kNoGate, in);
    }
  }
}

// ---------------------------------------------------------------------------
// structural.bypass-exclusivity — the bypass machinery of the column-/row-
// bypassing cells only saves power and keeps arithmetic correct when its
// pins are genuinely exclusive: a MUX whose data pins alias computes the
// same value for either select (the generator should have folded it away,
// and a miswired bypass looks exactly like this), and a tri-state buffer
// gated by its own data pin can never hold independent state.
// ---------------------------------------------------------------------------
void check_bypass_exclusivity(const LintContext& ctx, std::string_view id,
                              std::vector<Diagnostic>& out) {
  const Netlist& nl = *ctx.netlist;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gt = nl.gate(g);
    if (!kind_valid(gt) || !pins_in_bounds(nl, gt)) continue;
    const auto in = nl.gate_inputs(g);
    if (gt.kind == CellKind::kMux2 && in.size() == 3) {
      if (in[0] == in[1]) {
        emit(out, Severity::kWarning, id,
             describe_gate(nl, g) + " selects between aliased data pins (" +
                 describe_net(nl, in[0]) +
                 " twice): select-independent, miswired or unfolded bypass",
             g, in[0]);
      } else if (in[2] == in[0] || in[2] == in[1]) {
        emit(out, Severity::kWarning, id,
             describe_gate(nl, g) + " select pin " + describe_net(nl, in[2]) +
                 " aliases a data pin",
             g, in[2]);
      }
    }
    if (gt.kind == CellKind::kTbuf && in.size() == 2 && in[0] == in[1]) {
      emit(out, Severity::kWarning, id,
           describe_gate(nl, g) + " enable pin aliases its data pin (" +
               describe_net(nl, in[0]) + "): keeper can never isolate",
           g, in[0]);
    }
  }
}

constexpr Rule kStructuralRules[] = {
    {"structural.net-driver", RuleCategory::kStructural,
     "every net has exactly one driver and the driver table matches "
     "the gate list",
     check_net_driver},
    {"structural.cell-kind", RuleCategory::kStructural,
     "every gate's cell kind is a valid library cell", check_cell_kind},
    {"structural.pin-arity", RuleCategory::kStructural,
     "every gate has its cell's pin count and all pins name existing "
     "nets",
     check_pin_arity},
    {"structural.topo-order", RuleCategory::kStructural,
     "every gate input is topologically earlier than its output "
     "(acyclicity)",
     check_topo_order},
    {"structural.output-dangling", RuleCategory::kStructural,
     "every registered primary output names an existing net",
     check_output_dangling},
    {"structural.output-duplicate", RuleCategory::kStructural,
     "no net or name is registered as a primary output twice",
     check_output_duplicate},
    {"structural.fanout-free-net", RuleCategory::kStructural,
     "gate-driven nets that feed nothing and are not outputs (dead "
     "logic, wasted area)",
     check_fanout_free_net},
    {"structural.unobservable-gate", RuleCategory::kStructural,
     "gates with consumers but no path to any primary output",
     check_unobservable_gate},
    {"structural.unused-input", RuleCategory::kStructural,
     "primary inputs nothing reads (operand bit dropped by a "
     "generator)",
     check_unused_input},
    {"structural.bypass-exclusivity", RuleCategory::kStructural,
     "bypass MUX/tri-state pins are mutually exclusive (no aliased "
     "data or select pins)",
     check_bypass_exclusivity},
};

}  // namespace

std::span<const Rule> structural_rules() noexcept { return kStructuralRules; }

std::vector<Diagnostic> structural_diagnostics(const Netlist& netlist) {
  LintContext ctx;
  ctx.netlist = &netlist;
  std::vector<Diagnostic> out;
  for (const Rule& rule : kStructuralRules) rule.run(ctx, rule.id, out);
  return out;
}

}  // namespace agingsim::lint
