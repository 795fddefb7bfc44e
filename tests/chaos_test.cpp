#include "src/runtime/chaos.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

namespace agingsim::runtime {
namespace {

TEST(ChaosPolicyTest, ParsesSeedRateAndDefaultsToTransient) {
  const auto p = ChaosPolicy::parse("42:0.25");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seed, 42u);
  EXPECT_DOUBLE_EQ(p->rate, 0.25);
  EXPECT_TRUE(p->throw_transient);
  EXPECT_FALSE(p->throw_permanent);
  EXPECT_FALSE(p->stall);
  EXPECT_FALSE(p->crash);
  EXPECT_TRUE(p->enabled());
}

TEST(ChaosPolicyTest, ParsesExplicitActionSet) {
  const auto p = ChaosPolicy::parse("0x10:1:psc");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->seed, 0x10u);
  // An explicit actions field replaces the default, it does not extend it.
  EXPECT_FALSE(p->throw_transient);
  EXPECT_TRUE(p->throw_permanent);
  EXPECT_TRUE(p->stall);
  EXPECT_TRUE(p->crash);
}

TEST(ChaosPolicyTest, RejectsMalformedSpecsWithDiagnostic) {
  const char* bad[] = {"",        "7",       "x:0.5", "7:nope", "7:1.5",
                       "7:-0.1",  "7:0.5:z", "7:0.5:", "7:0.5:t:extra"};
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(ChaosPolicy::parse(spec, &error).has_value()) << spec;
    EXPECT_NE(error.find("chaos spec"), std::string::npos) << spec;
  }
}

TEST(ChaosSpecTest, EachEntryPointKeepsItsActionsDefaultAndSeedBase) {
  // The runtime's grammar: actions in [tpsc], default "t", base-0 seeds.
  const auto runtime = split_chaos_spec("0x10:0.5", "tpsc", "t", 0);
  ASSERT_TRUE(runtime.has_value());
  EXPECT_EQ(runtime->seed, 0x10u);
  EXPECT_EQ(runtime->rate, 0.5);
  EXPECT_EQ(runtime->actions, "t");
  // The serving layer's: actions in [tbsd], default "tbs", decimal seeds.
  const auto serve = split_chaos_spec("7:1", "tbsd", "tbs", 10);
  ASSERT_TRUE(serve.has_value());
  EXPECT_EQ(serve->actions, "tbs");
  EXPECT_FALSE(split_chaos_spec("0x10:0.5", "tbsd", "tbs", 10).has_value());
  // An action one entry point allows can be foreign to the other.
  EXPECT_TRUE(split_chaos_spec("1:0.5:c", "tpsc", "t", 0).has_value());
  std::string error;
  EXPECT_FALSE(split_chaos_spec("1:0.5:c", "tbsd", "tbs", 10, &error));
  EXPECT_EQ(error, "unknown action 'c'");
  EXPECT_FALSE(split_chaos_spec("1:2", "tpsc", "t", 0, &error));
  EXPECT_EQ(error, "rate must be a number in [0, 1]");
}

TEST(ChaosPolicyTest, ZeroRateIsDisabledAndDecidesNone) {
  const auto p = ChaosPolicy::parse("9:0");
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->enabled());
  for (std::uint64_t unit = 0; unit < 50; ++unit) {
    EXPECT_EQ(p->decide(unit, 0), ChaosAction::kNone);
  }
  EXPECT_EQ(p->crash_after_units(0), 0u);
}

TEST(ChaosPolicyTest, DecisionsAreDeterministic) {
  const auto p = ChaosPolicy::parse("1234:0.5:tps");
  ASSERT_TRUE(p.has_value());
  for (std::uint64_t unit = 0; unit < 100; ++unit) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(p->decide(unit, attempt), p->decide(unit, attempt));
    }
  }
}

TEST(ChaosPolicyTest, RateControlsInjectionFrequency) {
  const auto count_injections = [](double rate) {
    ChaosPolicy p;
    p.seed = 77;
    p.rate = rate;
    int injected = 0;
    for (std::uint64_t unit = 0; unit < 2000; ++unit) {
      if (p.decide(unit, 0) != ChaosAction::kNone) ++injected;
    }
    return injected;
  };
  EXPECT_EQ(count_injections(0.0), 0);
  EXPECT_EQ(count_injections(1.0), 2000);
  const int at_quarter = count_injections(0.25);
  EXPECT_GT(at_quarter, 2000 / 4 - 150);
  EXPECT_LT(at_quarter, 2000 / 4 + 150);
}

TEST(ChaosPolicyTest, DecisionVariesAcrossAttemptsSoRetriesCanSucceed) {
  // With rate < 1 a unit that drew chaos on attempt 0 must be able to draw
  // kNone on a later attempt — otherwise transient chaos could never
  // converge and would turn into de-facto permanent failure.
  const auto p = ChaosPolicy::parse("5:0.5");
  ASSERT_TRUE(p.has_value());
  int recovered = 0;
  for (std::uint64_t unit = 0; unit < 200; ++unit) {
    if (p->decide(unit, 0) == ChaosAction::kNone) continue;
    for (int attempt = 1; attempt < 6; ++attempt) {
      if (p->decide(unit, attempt) == ChaosAction::kNone) {
        ++recovered;
        break;
      }
    }
  }
  EXPECT_GT(recovered, 50);
}

TEST(ChaosPolicyTest, CrashScheduleIsPositiveAndEpochDependent) {
  const auto p = ChaosPolicy::parse("21:0.1:c");
  ASSERT_TRUE(p.has_value());
  std::map<std::uint64_t, int> seen;
  for (std::uint64_t epoch = 0; epoch < 64; ++epoch) {
    const std::uint64_t after = p->crash_after_units(epoch);
    ASSERT_GE(after, 1u);   // always at least one fresh unit per run
    ASSERT_LE(after, 10u);  // span tracks 1/rate
    ++seen[after];
  }
  // The schedule must actually vary with the epoch (fresh draw per resume).
  EXPECT_GT(seen.size(), 1u);
}

TEST(ChaosPolicyTest, FromEnvDisabledWhenUnset) {
  ::unsetenv("AGINGSIM_CHAOS");
  EXPECT_FALSE(ChaosPolicy::from_env().enabled());
}

TEST(ChaosPolicyTest, FromEnvParsesWellFormedSpec) {
  ::setenv("AGINGSIM_CHAOS", "31:0.125:ts", 1);
  const ChaosPolicy p = ChaosPolicy::from_env();
  EXPECT_EQ(p.seed, 31u);
  EXPECT_DOUBLE_EQ(p.rate, 0.125);
  EXPECT_TRUE(p.stall);
  ::unsetenv("AGINGSIM_CHAOS");
}

TEST(ChaosPolicyTest, FromEnvIgnoresMalformedSpec) {
  ::setenv("AGINGSIM_CHAOS", "complete nonsense", 1);
  EXPECT_FALSE(ChaosPolicy::from_env().enabled());
  ::unsetenv("AGINGSIM_CHAOS");
}

}  // namespace
}  // namespace agingsim::runtime
