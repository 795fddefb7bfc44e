#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "src/lint/rule.hpp"

namespace agingsim {
class JsonWriter;
}

namespace agingsim::lint {

/// Result of one lint::run: every diagnostic from every rule, sorted
/// most severe first (stable within a severity, i.e. in rule order).
struct LintReport {
  std::vector<Diagnostic> diagnostics;

  std::size_t count(Severity severity) const noexcept;
  std::size_t errors() const noexcept { return count(Severity::kError); }
  std::size_t warnings() const noexcept { return count(Severity::kWarning); }
  std::size_t infos() const noexcept { return count(Severity::kInfo); }
  /// True when no error-severity diagnostic was raised (warnings allowed).
  bool clean() const noexcept { return errors() == 0; }

  /// "2 errors, 1 warning, 4 infos"
  std::string summary() const;

  /// Emits this report as a JSON object:
  ///   { "counts": {"error": E, "warning": W, "info": I},
  ///     "diagnostics": [ {"severity", "rule", "message", "gate", "net"} ] }
  /// `gate`/`net` are -1 when the diagnostic has no anchor. The writer must
  /// be positioned where a value is legal (after key(), or inside an array).
  void write_json(JsonWriter& writer) const;
};

/// Runs `rules` over a lint context, one `lint.rule` span per rule. A rule
/// that throws does not abort the run: the exception is converted into an
/// error diagnostic under the rule's own id (so a crash in analysis code is
/// itself a finding, and the fuzz suite's "never crashes" guarantee holds
/// for the whole run). Throws std::invalid_argument when `ctx.netlist` is
/// null.
LintReport run(const LintContext& ctx,
               std::span<const Rule> rules = all_rules());

}  // namespace agingsim::lint
