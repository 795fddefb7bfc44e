#include "src/lint/rule.hpp"

namespace agingsim::lint {

std::string_view category_name(RuleCategory category) noexcept {
  switch (category) {
    case RuleCategory::kStructural: return "structural";
    case RuleCategory::kTiming: return "timing";
    case RuleCategory::kConsistency: return "consistency";
  }
  return "?";
}

std::span<const Rule> all_rules() {
  static const std::vector<Rule> rules = [] {
    std::vector<Rule> all;
    for (const std::span<const Rule> family :
         {structural_rules(), timing_rules(), consistency_rules()}) {
      all.insert(all.end(), family.begin(), family.end());
    }
    return all;
  }();
  return rules;
}

const Rule* find_rule(std::string_view id) {
  for (const Rule& rule : all_rules()) {
    if (rule.id == id) return &rule;
  }
  return nullptr;
}

}  // namespace agingsim::lint
