// The strict env-parsing contract (src/core/env.hpp): whole-string parses
// only, warn-once-then-fallback on rejects, clamp-with-warning above the
// ceiling. bench::default_ops rides the same helper — the std::atol it
// replaced accepted "12abc" as 12 silently.

#include "src/core/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "bench/common.hpp"

namespace agingsim {
namespace {

/// Scoped setenv/unsetenv that restores the previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(EnvParseTest, LongParsesWholeStringsOnly) {
  EXPECT_EQ(env::parse_long("12"), 12);
  EXPECT_EQ(env::parse_long("-5"), -5);
  EXPECT_EQ(env::parse_long("0x10", 0), 16);
  EXPECT_FALSE(env::parse_long("").has_value());
  EXPECT_FALSE(env::parse_long("12abc").has_value());  // the old atol bug
  EXPECT_FALSE(env::parse_long("abc").has_value());
  EXPECT_FALSE(env::parse_long("12 ").has_value());
  // strtol skips leading blanks and takes a '+'; the grammar does not.
  EXPECT_FALSE(env::parse_long(" 12").has_value());
  EXPECT_FALSE(env::parse_long("\n3").has_value());
  EXPECT_FALSE(env::parse_long("+12").has_value());
  EXPECT_FALSE(env::parse_long(" 0x10", 0).has_value());
  EXPECT_FALSE(env::parse_long("99999999999999999999").has_value());
}

TEST(EnvParseTest, U64RejectsSignsAndGarbage) {
  EXPECT_EQ(env::parse_u64("18446744073709551615"), ~0ULL);
  EXPECT_EQ(env::parse_u64("0xFA17", 0), 0xFA17ULL);
  // strtoull silently negates "-1"; the wrapper must not.
  EXPECT_FALSE(env::parse_u64("-1").has_value());
  EXPECT_FALSE(env::parse_u64("+1").has_value());
  EXPECT_FALSE(env::parse_u64("7seeds").has_value());
  EXPECT_FALSE(env::parse_u64("").has_value());
}

TEST(EnvParseTest, DoubleRejectsGarbageAndNonFinite) {
  EXPECT_EQ(env::parse_double("0.5"), 0.5);
  EXPECT_EQ(env::parse_double("1e3"), 1000.0);
  EXPECT_FALSE(env::parse_double("0.5x").has_value());
  EXPECT_FALSE(env::parse_double("").has_value());
  EXPECT_FALSE(env::parse_double("1e400").has_value());  // overflow
  EXPECT_FALSE(env::parse_double("nan").has_value());
  EXPECT_FALSE(env::parse_double("inf").has_value());
  EXPECT_FALSE(env::parse_double(" 0.5").has_value());
  EXPECT_FALSE(env::parse_double("+0.5").has_value());
  EXPECT_EQ(env::parse_double("-0.5"), -0.5);
}

TEST(EnvVarTest, RejectedValueWarnsOnceAndFallsBack) {
  ScopedEnv scoped("AGINGSIM_ENV_TEST_REJECT", "12abc");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(env::long_var("AGINGSIM_ENV_TEST_REJECT", 1).has_value());
  EXPECT_EQ(env::long_or("AGINGSIM_ENV_TEST_REJECT", 77, 1), 77);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("AGINGSIM_ENV_TEST_REJECT='12abc'"), std::string::npos)
      << err;
  EXPECT_NE(err.find("ignored"), std::string::npos) << err;
  // Deduplicated per (name, value): the second read warned nothing.
  EXPECT_EQ(err.find("AGINGSIM_ENV_TEST_REJECT",
                     err.find("AGINGSIM_ENV_TEST_REJECT") + 1),
            std::string::npos)
      << err;
}

TEST(EnvVarTest, ValueAboveCeilingClampsWithWarning) {
  ScopedEnv scoped("AGINGSIM_ENV_TEST_CLAMP", "5000");
  testing::internal::CaptureStderr();
  EXPECT_EQ(env::long_var("AGINGSIM_ENV_TEST_CLAMP", 1, 256), 256);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("clamped"), std::string::npos) << err;
}

TEST(EnvVarTest, UnsetAndBelowMinimumBehave) {
  ScopedEnv scoped("AGINGSIM_ENV_TEST_UNSET", nullptr);
  EXPECT_FALSE(env::long_var("AGINGSIM_ENV_TEST_UNSET", 1).has_value());
  EXPECT_EQ(env::long_or("AGINGSIM_ENV_TEST_UNSET", 9, 1), 9);

  ScopedEnv below("AGINGSIM_ENV_TEST_BELOW", "0");
  EXPECT_EQ(env::long_or("AGINGSIM_ENV_TEST_BELOW", 9, 1), 9);
}

TEST(EnvVarTest, StrVarTreatsEmptyAsUnset) {
  ScopedEnv empty("AGINGSIM_ENV_TEST_STR", "");
  EXPECT_FALSE(env::str_var("AGINGSIM_ENV_TEST_STR").has_value());
  ScopedEnv set("AGINGSIM_ENV_TEST_STR", "/tmp/ckpt");
  EXPECT_EQ(env::str_var("AGINGSIM_ENV_TEST_STR"), "/tmp/ckpt");
}

TEST(EnvVarTest, ChoiceVarMatchesExactlyOrFallsBack) {
  static constexpr const char* kChoices[] = {"dense", "sparse", "batch"};
  {
    ScopedEnv scoped("AGINGSIM_ENV_TEST_CHOICE", "batch");
    EXPECT_EQ(env::choice_var("AGINGSIM_ENV_TEST_CHOICE", kChoices), 2u);
  }
  {
    // Wrong case is a reject, not a match: the caller's default must win
    // (with a once-only warning listing the accepted spellings).
    testing::internal::CaptureStderr();
    ScopedEnv scoped("AGINGSIM_ENV_TEST_CHOICE2", "Batch");
    EXPECT_FALSE(
        env::choice_var("AGINGSIM_ENV_TEST_CHOICE2", kChoices).has_value());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("sparse"), std::string::npos) << err;
  }
  {
    ScopedEnv scoped("AGINGSIM_ENV_TEST_CHOICE3", "");
    EXPECT_FALSE(
        env::choice_var("AGINGSIM_ENV_TEST_CHOICE3", kChoices).has_value());
  }
}

TEST(EnvVarTest, DoubleOrParsesStrictlyAndEnforcesMinimum) {
  {
    ScopedEnv scoped("AGINGSIM_ENV_TEST_DBL", "2.5");
    EXPECT_DOUBLE_EQ(env::double_or("AGINGSIM_ENV_TEST_DBL", 0.0, 0.0), 2.5);
  }
  {
    ScopedEnv scoped("AGINGSIM_ENV_TEST_DBL2", "2.5ps");  // trailing garbage
    EXPECT_DOUBLE_EQ(env::double_or("AGINGSIM_ENV_TEST_DBL2", 7.0, 0.0), 7.0);
  }
  {
    ScopedEnv scoped("AGINGSIM_ENV_TEST_DBL3", "-1.0");  // below minimum
    EXPECT_DOUBLE_EQ(env::double_or("AGINGSIM_ENV_TEST_DBL3", 7.0, 0.0), 7.0);
  }
  {
    ScopedEnv scoped("AGINGSIM_ENV_TEST_DBL4", "inf");  // non-finite
    EXPECT_DOUBLE_EQ(env::double_or("AGINGSIM_ENV_TEST_DBL4", 7.0, 0.0), 7.0);
  }
  {
    ScopedEnv scoped("AGINGSIM_ENV_TEST_DBL5", nullptr);
    EXPECT_DOUBLE_EQ(env::double_or("AGINGSIM_ENV_TEST_DBL5", 7.0, 0.0), 7.0);
  }
}

TEST(EnvVarTest, BenchOpsUsesStrictParsing) {
  {
    ScopedEnv scoped("AGINGSIM_BENCH_OPS", "250");
    EXPECT_EQ(bench::default_ops(), 250u);
  }
  {
    // Under std::atol this returned 12; the strict parser falls back to
    // the 10000-op default (with a once-only warning).
    ScopedEnv scoped("AGINGSIM_BENCH_OPS", "12significant-figures");
    EXPECT_EQ(bench::default_ops(), 10000u);
  }
  {
    ScopedEnv scoped("AGINGSIM_BENCH_OPS", nullptr);
    EXPECT_EQ(bench::default_ops(), 10000u);
  }
}

}  // namespace
}  // namespace agingsim
