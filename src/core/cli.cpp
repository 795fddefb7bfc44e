#include "src/core/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/core/env.hpp"

namespace agingsim::cli {
namespace {

template <class T>
std::optional<T> within(std::optional<T> v, T min, T max) {
  if (!v || *v < min || *v > max) return std::nullopt;
  return v;
}

std::string shortest(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::optional<long> parse_int(std::string_view text, long min, long max) {
  return within(env::parse_long(text, 0), min, max);
}

std::optional<double> parse_number(std::string_view text, double min,
                                   double max) {
  return within(env::parse_double(text), min, max);
}

std::optional<double> parse_positive(std::string_view text) {
  const auto v = env::parse_double(text);
  if (!v || !(*v > 0.0)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_seed(std::string_view text) {
  if (const auto v = env::parse_u64(text, 0)) return *v;
  return std::nullopt;
}

std::optional<std::vector<double>> parse_years(std::string_view text) {
  return parse_list(text, [](std::string_view item) {
    return parse_number(item, 0.0, std::numeric_limits<double>::max());
  });
}

void FlagReader::on(std::string_view flag, std::function<void()> act) {
  flags_.push_back(
      {std::string(flag), "", [act = std::move(act)](std::string_view) {
         act();
         return true;
       }});
}

void FlagReader::on(std::string_view flag,
                    std::function<bool(std::string_view)> take,
                    std::string what) {
  flags_.push_back({std::string(flag), std::move(what), std::move(take)});
}

std::string FlagReader::integer_range(long min, long max) {
  return max == std::numeric_limits<int>::max()
             ? "an integer >= " + std::to_string(min)
             : "an integer in [" + std::to_string(min) + ", " +
                   std::to_string(max) + "]";
}

void FlagReader::number(std::string_view flag, double& out, double min,
                        double max) {
  value(flag, out,
        [min, max](std::string_view t) { return parse_number(t, min, max); },
        max == std::numeric_limits<double>::max()
            ? "a number >= " + shortest(min)
            : "a number in [" + shortest(min) + ", " + shortest(max) + "]");
}

void FlagReader::choice(std::string_view flag, std::string& out,
                        std::initializer_list<std::string_view> choices) {
  std::string what;
  for (const std::string_view c : choices) {
    if (!what.empty()) what += '|';
    what += c;
  }
  value(
      flag, out,
      [list = std::vector<std::string_view>(choices)](
          std::string_view t) -> std::optional<std::string_view> {
        for (const std::string_view c : list) {
          if (t == c) return t;
        }
        return std::nullopt;
      },
      what);
}

FlagReader::Outcome FlagReader::apply(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return {.help = true};
    const auto flag = std::find_if(
        flags_.begin(), flags_.end(),
        [&](const Flag& f) { return f.name == arg; });
    if (flag == flags_.end()) {
      return {.error = "unknown option '" + std::string(arg) + "'",
              .unknown = true};
    }
    if (flag->what.empty()) {
      flag->apply({});
      continue;
    }
    if (++i >= argc) return {.error = flag->name + " needs a value"};
    if (!flag->apply(argv[i])) {
      return {.error = flag->name + " wants " + flag->what + ", got '" +
                       argv[i] + "'"};
    }
  }
  return {};
}

void FlagReader::parse(int argc, char** argv) const {
  const Outcome outcome = apply(argc, argv);
  if (outcome.help) {
    usage_(std::cout);
    std::exit(0);
  }
  if (outcome.error.empty()) return;
  std::cerr << tool_ << ": " << outcome.error << "\n";
  if (outcome.unknown) usage_(std::cerr);
  std::exit(2);
}

}  // namespace agingsim::cli
