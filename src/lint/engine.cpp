#include "src/lint/engine.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "src/obs/trace.hpp"
#include "src/report/json.hpp"

namespace agingsim::lint {

std::size_t LintReport::count(Severity severity) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [severity](const Diagnostic& d) {
                      return d.severity == severity;
                    }));
}

std::string LintReport::summary() const {
  const auto plural = [](std::size_t n, const char* noun) {
    return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
  };
  return plural(errors(), "error") + ", " + plural(warnings(), "warning") +
         ", " + plural(infos(), "info");
}

void LintReport::write_json(JsonWriter& writer) const {
  writer.begin_object();
  writer.key("counts").begin_object();
  writer.key("error").value(static_cast<std::uint64_t>(errors()));
  writer.key("warning").value(static_cast<std::uint64_t>(warnings()));
  writer.key("info").value(static_cast<std::uint64_t>(infos()));
  writer.end_object();
  writer.key("diagnostics").begin_array();
  for (const Diagnostic& d : diagnostics) {
    writer.begin_object();
    writer.key("severity").value(severity_name(d.severity));
    writer.key("rule").value(d.rule);
    writer.key("message").value(d.message);
    writer.key("gate").value(
        d.gate == kNoGate ? std::int64_t{-1} : static_cast<std::int64_t>(d.gate));
    writer.key("net").value(d.net == kInvalidNet
                                ? std::int64_t{-1}
                                : static_cast<std::int64_t>(d.net));
    writer.end_object();
  }
  writer.end_array();
  writer.end_object();
}

LintEngine::LintEngine() {
  register_structural_rules(registry_);
  register_timing_rules(registry_);
  register_consistency_rules(registry_);
}

LintEngine::LintEngine(RuleRegistry registry)
    : registry_(std::move(registry)) {}

LintReport LintEngine::run(const LintContext& ctx) const {
  if (ctx.netlist == nullptr) {
    throw std::invalid_argument("LintEngine::run: context has no netlist");
  }
  LintReport report;
  std::uint64_t index = 0;
  for (const auto& rule : registry_.rules()) {
    obs::TraceSpan span("lint.rule", index++);
    try {
      rule->run(ctx, report.diagnostics);
    } catch (const std::exception& e) {
      report.diagnostics.push_back(
          Diagnostic{Severity::kError, std::string(rule->id()),
                     std::string("rule aborted with exception: ") + e.what(),
                     kNoGate, kInvalidNet});
    }
  }
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return report;
}

}  // namespace agingsim::lint
