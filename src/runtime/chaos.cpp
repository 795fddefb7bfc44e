#include "src/runtime/chaos.hpp"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "src/core/env.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::runtime {

std::string_view chaos_action_name(ChaosAction action) {
  switch (action) {
    case ChaosAction::kNone: return "none";
    case ChaosAction::kThrowTransient: return "throw-transient";
    case ChaosAction::kThrowPermanent: return "throw-permanent";
    case ChaosAction::kStall: return "stall";
  }
  return "unknown";
}

std::optional<ChaosSpec> split_chaos_spec(std::string_view spec,
                                          std::string_view allowed,
                                          std::string_view default_actions,
                                          int seed_base, std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<ChaosSpec> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  std::vector<std::string_view> fields;
  while (true) {
    const std::size_t colon = spec.find(':');
    fields.push_back(spec.substr(0, colon));
    if (colon == std::string_view::npos) break;
    spec.remove_prefix(colon + 1);
  }
  if (fields.size() < 2 || fields.size() > 3) {
    return fail("need 2 or 3 colon-separated fields");
  }
  // Strict whole-field parses (src/core/env.hpp): trailing garbage in any
  // field rejects the spec instead of silently truncating it.
  const auto seed = env::parse_u64(fields[0], seed_base);
  if (!seed.has_value()) return fail("bad seed");
  const auto rate = env::parse_double(fields[1]);
  if (!rate.has_value() || *rate < 0.0 || *rate > 1.0) {
    return fail("rate must be a number in [0, 1]");
  }
  ChaosSpec out{.seed = *seed,
                .rate = *rate,
                .actions = std::string(fields.size() == 3 ? fields[2]
                                                          : default_actions)};
  if (out.actions.empty()) return fail("empty actions field");
  for (const char c : out.actions) {
    if (allowed.find(c) == std::string_view::npos) {
      return fail(std::string("unknown action '") + c + "'");
    }
  }
  return out;
}

std::optional<ChaosPolicy> ChaosPolicy::parse(std::string_view spec,
                                              std::string* error) {
  std::string why;
  const auto fields = split_chaos_spec(spec, "tpsc", "t", 0, &why);
  if (!fields) {
    if (error != nullptr) {
      *error = "chaos spec '" + std::string(spec) + "': " + why +
               " (expected seed:rate[:actions], actions in [tpsc])";
    }
    return std::nullopt;
  }
  ChaosPolicy policy;
  policy.seed = fields->seed;
  policy.rate = fields->rate;
  const auto has = [&](char c) {
    return fields->actions.find(c) != std::string::npos;
  };
  policy.throw_transient = has('t');
  policy.throw_permanent = has('p');
  policy.stall = has('s');
  policy.crash = has('c');
  return policy;
}

ChaosPolicy ChaosPolicy::from_env() {
  const char* env = std::getenv("AGINGSIM_CHAOS");
  if (env == nullptr || *env == '\0') return {};
  std::string error;
  if (const auto policy = parse(env, &error)) return *policy;
  static std::once_flag warned;
  std::call_once(warned, [&] {
    std::fprintf(stderr, "AGINGSIM_CHAOS ignored: %s\n", error.c_str());
  });
  return {};
}

ChaosAction ChaosPolicy::decide(std::uint64_t unit, int attempt) const {
  if (!enabled()) return ChaosAction::kNone;
  std::array<ChaosAction, 3> enabled_actions{};
  std::size_t n = 0;
  if (throw_transient) enabled_actions[n++] = ChaosAction::kThrowTransient;
  if (throw_permanent) enabled_actions[n++] = ChaosAction::kThrowPermanent;
  if (stall) enabled_actions[n++] = ChaosAction::kStall;
  if (n == 0) return ChaosAction::kNone;

  const std::uint64_t h =
      mix64(seed ^ mix64(unit + 1) ^
            mix64(static_cast<std::uint64_t>(attempt) * 0x5DEECE66DULL));
  if (to_unit_interval(h) >= rate) return ChaosAction::kNone;
  return enabled_actions[mix64(h) % n];
}

std::uint64_t ChaosPolicy::crash_after_units(std::uint64_t epoch) const {
  if (!enabled() || !crash) return 0;
  // Span ~ 1/rate units, so the crash frequency tracks the configured rate;
  // minimum 1 guarantees at least one fresh unit is persisted per run.
  const std::uint64_t span =
      rate >= 1.0 ? 1 : static_cast<std::uint64_t>(1.0 / rate);
  return 1 + mix64(seed ^ mix64(epoch + 0x9E37ULL)) % span;
}

}  // namespace agingsim::runtime
