// The tools' shared flag reader (src/core/cli.hpp): strict whole-string
// value parses inside each flag's range, and a usage error — printed with
// exit code 2 — for every value the tools used to accept silently.

#include "src/core/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace agingsim::cli {
namespace {

void usage(std::ostream& os) { os << "usage: test [options]\n"; }

/// argv for apply(): argv[0] is the tool name.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "tool");
    for (std::string& a : args_) ptrs_.push_back(a.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

struct Options {
  int width = 16;
  double factor = 8.0;
  double fraction = 0.99;
  std::uint64_t seed = 0;
  std::vector<double> years = {0.0, 7.0};
  std::string mode = "closed";
  std::string json;
  bool quiet = false;
};

FlagReader reader(Options& opt) {
  FlagReader args("tool", usage);
  args.integer("--width", opt.width, 2, 32);
  args.positive("--factor", opt.factor);
  args.number("--fraction", opt.fraction, 0.0, 1.0);
  args.seed("--seed", opt.seed);
  args.years("--years", opt.years);
  args.choice("--mode", opt.mode, {"closed", "open"});
  args.text("--json", opt.json);
  args.on("--quiet", opt.quiet);
  return args;
}

FlagReader::Outcome apply(Options& opt, std::vector<std::string> args) {
  Argv argv(std::move(args));
  return reader(opt).apply(argv.argc(), argv.argv());
}

TEST(CliParseTest, IntegersAreWholeStringAndInRange) {
  EXPECT_EQ(parse_int("8", 2, 32), 8);
  EXPECT_EQ(parse_int("0x10", 2, 32), 16);
  EXPECT_EQ(parse_int("-3", -5, 5), -3);
  for (const char* bad : {"", "8x", "x", "1", "33", "-5", "4.0", "1e3"}) {
    EXPECT_FALSE(parse_int(bad, 2, 32).has_value()) << bad;
  }
}

TEST(CliParseTest, NumbersAreFiniteAndInRange) {
  EXPECT_EQ(parse_number("0.5", 0.0, 1.0), 0.5);
  EXPECT_EQ(parse_number("1", 0.0, 1.0), 1.0);
  for (const char* bad : {"", "5", "-0.1", "abc", "0.5x", "nan", "inf"}) {
    EXPECT_FALSE(parse_number(bad, 0.0, 1.0).has_value()) << bad;
  }
  EXPECT_EQ(parse_positive("8"), 8.0);
  for (const char* bad : {"0", "-1", "8x", "", "inf"}) {
    EXPECT_FALSE(parse_positive(bad).has_value()) << bad;
  }
}

TEST(CliParseTest, SeedsAreUnsignedWithOptionalHexPrefix) {
  EXPECT_EQ(parse_seed("0xFA17"), 0xFA17u);
  EXPECT_EQ(parse_seed("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"zz", "", "-1", " -1", "+1", "12abc",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_seed(bad).has_value()) << bad;
  }
}

TEST(CliParseTest, YearsAreANonEmptyListOfNonNegativeNumbers) {
  EXPECT_EQ(parse_years("0,3.5,7"), (std::vector<double>{0.0, 3.5, 7.0}));
  EXPECT_EQ(parse_years("7"), (std::vector<double>{7.0}));
  for (const char* bad : {"", "-3", "0,", ",0", "0,,7", "0,nan", "0,inf",
                          "1;2", "0, x"}) {
    EXPECT_FALSE(parse_years(bad).has_value()) << bad;
  }
}

TEST(CliParseTest, ListsRejectAnyBadItem) {
  const auto widths = [](std::string_view text) {
    return parse_list(text, [](std::string_view w) {
      return parse_int(w, 2, 32);
    });
  };
  EXPECT_EQ(widths("8,16"), (std::vector<long>{8, 16}));
  EXPECT_FALSE(widths("8x").has_value());
  EXPECT_FALSE(widths("8,40").has_value());
}

TEST(FlagReaderTest, AppliesFlagsInOrder) {
  Options opt;
  const auto outcome =
      apply(opt, {"--width", "8", "--factor", "2.5", "--seed", "0x10",
                  "--years", "1,2", "--mode", "open", "--quiet", "--json",
                  "-", "--width", "12"});
  EXPECT_FALSE(outcome.help);
  EXPECT_EQ(outcome.error, "");
  EXPECT_EQ(opt.width, 12);
  EXPECT_EQ(opt.factor, 2.5);
  EXPECT_EQ(opt.seed, 0x10u);
  EXPECT_EQ(opt.years, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(opt.mode, "open");
  EXPECT_EQ(opt.json, "-");
  EXPECT_TRUE(opt.quiet);
}

TEST(FlagReaderTest, RejectedValuesNameTheFlagTheRangeAndTheValue) {
  const std::pair<std::vector<std::string>, std::string> cases[] = {
      {{"--width", "8x"}, "--width wants an integer in [2, 32], got '8x'"},
      {{"--factor", "8x"}, "--factor wants a number > 0, got '8x'"},
      {{"--fraction", "5"}, "--fraction wants a number in [0, 1], got '5'"},
      {{"--seed", "zz"}, "--seed wants an unsigned integer, got 'zz'"},
      {{"--years", "-3"},
       "--years wants a comma list of numbers >= 0, got '-3'"},
      {{"--mode", "half"}, "--mode wants closed|open, got 'half'"},
      {{"--width"}, "--width needs a value"},
  };
  for (const auto& [args, error] : cases) {
    Options opt;
    const auto outcome = apply(opt, args);
    EXPECT_EQ(outcome.error, error);
    EXPECT_FALSE(outcome.unknown);
  }
  Options opt;
  const auto unknown = apply(opt, {"--quiet", "--bogus"});
  EXPECT_EQ(unknown.error, "unknown option '--bogus'");
  EXPECT_TRUE(unknown.unknown);
}

TEST(FlagReaderTest, RejectedValueLeavesTheDefault) {
  Options opt;
  (void)apply(opt, {"--width", "64"});
  EXPECT_EQ(opt.width, 16);
}

TEST(FlagReaderTest, HelpStopsTheWalkUnlessAnErrorCameFirst) {
  Options opt;
  EXPECT_TRUE(apply(opt, {"--help", "--bogus"}).help);
  EXPECT_TRUE(apply(opt, {"--quiet", "-h"}).help);
  const auto late = apply(opt, {"--bogus", "--help"});
  EXPECT_FALSE(late.help);
  EXPECT_TRUE(late.unknown);
}

TEST(FlagReaderDeathTest, ParseExitsTwoOnAUsageErrorAndZeroOnHelp) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto parse = [](std::vector<std::string> args) {
    Options opt;
    Argv argv(std::move(args));
    reader(opt).parse(argv.argc(), argv.argv());
    std::exit(42);  // parse() returned: every flag applied
  };
  EXPECT_EXIT(parse({"--seed", "zz"}), testing::ExitedWithCode(2),
              "tool: --seed wants an unsigned integer, got 'zz'");
  EXPECT_EXIT(parse({"--bogus"}), testing::ExitedWithCode(2),
              "unknown option '--bogus'(.|\n)*usage: test");
  EXPECT_EXIT(parse({"--help"}), testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse({"--width", "8"}), testing::ExitedWithCode(42), "");
}

}  // namespace
}  // namespace agingsim::cli
