#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "src/lint/rule.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sim/value_sweep.hpp"
#include "src/workload/patterns.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::lint {
namespace {

// ---------------------------------------------------------------------------
// consistency.functional — the generated netlist must compute a*b. Running
// the functional reference check as a lint rule puts generator bugs in the
// same report as structural and timing findings, so `aginglint` is a single
// gate for "this netlist is safe to ship". A product does not depend on
// delays, so the vectors settle 64 to a word in a values-only ValueSweep,
// each lane the value a pattern-by-pattern simulation settles to.
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

  ValueSweep sweep(mult.netlist);
  std::vector<std::uint64_t> words(mult.netlist.num_inputs());
  constexpr std::size_t kMaxReported = 5;
  std::size_t mismatches = 0;
  for (std::size_t first = 0; first < vectors.size(); first += kBatchLanes) {
    const auto word = std::span(vectors).subspan(
        first, std::min<std::size_t>(kBatchLanes, vectors.size() - first));
    load_word(words, mult, word);
    sweep.step_word(words, static_cast<int>(word.size()));
    for (std::size_t l = 0; l < word.size(); ++l) {
      const OperandPattern& v = word[l];
      const std::uint64_t got = sweep.output_bits(static_cast<int>(l));
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
