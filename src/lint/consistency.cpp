#include <string>
#include <vector>

#include "src/lint/rule.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"
#include "src/workload/patterns.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::lint {
namespace {

// ---------------------------------------------------------------------------
// consistency.functional — the generated netlist must compute a*b. Running
// the functional reference check as a lint rule puts generator bugs in the
// same report as structural and timing findings, so `aginglint` is a single
// gate for "this netlist is safe to ship".
// ---------------------------------------------------------------------------
void check_functional(const LintContext& ctx, std::string_view id,
                      std::vector<Diagnostic>& out) {
  if (ctx.multiplier == nullptr) {
    out.push_back(Diagnostic{Severity::kInfo, std::string(id),
                             "skipped: no multiplier metadata (arch/width/"
                             "operand layout unknown)",
                             kNoGate, kInvalidNet});
    return;
  }
  const MultiplierNetlist& mult = *ctx.multiplier;
  // Functional equivalence does not depend on delays, so any library
  // works; prefer the caller's to avoid surprises.
  const TechLibrary& tech = (ctx.timing != nullptr && ctx.timing->tech)
                                ? *ctx.timing->tech
                                : default_tech_library();
  const std::uint64_t max_operand =
      mult.width >= 64 ? ~0ULL : ((1ULL << mult.width) - 1);

  // Corner vectors first: all-ones flushes the power-up X state through
  // every bypass keeper, then the zero/one corners exercise full bypass.
  std::vector<OperandPattern> vectors{
      {max_operand, max_operand}, {0, 0},           {0, max_operand},
      {max_operand, 0},           {1, 1},           {1, max_operand},
      {max_operand, 1},           {max_operand, max_operand}};
  Rng rng(ctx.consistency.seed);
  const auto random_vectors =
      uniform_patterns(rng, mult.width, ctx.consistency.vectors);
  vectors.insert(vectors.end(), random_vectors.begin(),
                 random_vectors.end());

  MultiplierSim sim(mult, tech);
  constexpr std::size_t kMaxReported = 5;
  std::size_t mismatches = 0;
  for (const OperandPattern& v : vectors) {
    sim.apply(v.a, v.b);
    const std::uint64_t got = sim.product();
    const std::uint64_t want = reference_multiply(v.a, v.b, mult.width);
    if (got == want) continue;
    ++mismatches;
    if (mismatches <= kMaxReported) {
      out.push_back(Diagnostic{
          Severity::kError, std::string(id),
          std::string(arch_name(mult.arch)) + std::to_string(mult.width) +
              " computes " + std::to_string(v.a) + " * " +
              std::to_string(v.b) + " = " + std::to_string(got) +
              ", golden reference says " + std::to_string(want),
          kNoGate, kInvalidNet});
    }
  }
  if (mismatches > kMaxReported) {
    out.push_back(Diagnostic{
        Severity::kError, std::string(id),
        "... and " + std::to_string(mismatches - kMaxReported) +
            " further mismatching vectors (" + std::to_string(mismatches) +
            " of " + std::to_string(vectors.size()) + " total)",
        kNoGate, kInvalidNet});
  }
  if (mismatches == 0) {
    out.push_back(Diagnostic{
        Severity::kInfo, std::string(id),
        "proved: " + std::to_string(vectors.size()) +
            " vectors (8 corners + " +
            std::to_string(random_vectors.size()) +
            " seeded random) match the golden multiply",
        kNoGate, kInvalidNet});
  }
}

constexpr Rule kConsistencyRules[] = {
    {"consistency.functional", RuleCategory::kConsistency,
     "the netlist matches the golden multiply on corner and seeded "
     "random vectors",
     check_functional},
};

}  // namespace

std::span<const Rule> consistency_rules() noexcept {
  return kConsistencyRules;
}

}  // namespace agingsim::lint
