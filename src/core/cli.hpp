#pragma once

// The one command-line flag reader of the tools (aginglint, agingrun,
// agingd, agingload). A tool registers each flag once, with the variable
// it sets and the range its value must fall in; parse() then walks argv.
// Every value is parsed strictly — the whole string, inside the flag's
// documented range — and a rejected value prints "<tool>: <flag> wants
// <what>, got '<value>'" and exits 2 from one place. apply() and the
// parse functions underneath never exit or throw, which is what the unit
// and fuzz tests drive.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace agingsim::cli {

/// Integer in [min, max]: decimal, or 0x/0 prefixed (strtol base 0).
std::optional<long> parse_int(std::string_view text, long min, long max);
/// Finite number in [min, max].
std::optional<double> parse_number(std::string_view text, double min,
                                   double max);
/// Finite number > 0.
std::optional<double> parse_positive(std::string_view text);
/// Unsigned 64-bit seed, decimal or 0x/0 prefixed; no sign.
std::optional<std::uint64_t> parse_seed(std::string_view text);

/// A non-empty comma list whose every item passes `parse_item`
/// (std::string_view -> std::optional); nullopt on any empty or rejected
/// item.
template <class ParseItem>
auto parse_list(std::string_view text, ParseItem&& parse_item) {
  using Item =
      typename std::invoke_result_t<ParseItem&, std::string_view>::value_type;
  std::optional<std::vector<Item>> items(std::in_place);
  while (true) {
    const std::size_t comma = text.find(',');
    auto item = parse_item(text.substr(0, comma));
    if (!item) return decltype(items){};
    items->push_back(*item);
    if (comma == std::string_view::npos) return items;
    text.remove_prefix(comma + 1);
  }
}

/// Aging years, "0,3.5,7": a non-empty comma list of finite numbers >= 0.
std::optional<std::vector<double>> parse_years(std::string_view text);

class FlagReader {
 public:
  using Usage = void (*)(std::ostream&);

  FlagReader(std::string_view tool, Usage usage)
      : tool_(tool), usage_(usage) {}

  /// A switch: sets `out`, or runs `act`, when present.
  void on(std::string_view flag, bool& out) {
    on(flag, [&out] { out = true; });
  }
  void on(std::string_view flag, std::function<void()> act);
  /// A valued flag handed to `take`, which returns false to reject the
  /// value as not being `what`.
  void on(std::string_view flag, std::function<bool(std::string_view)> take,
          std::string what);

  /// A valued flag: `parse` (std::string_view -> std::optional) checks the
  /// value and `out` takes the result; a nullopt is rejected as not being
  /// `what`. The typed forms below name their range in `what` themselves.
  template <class Out, class Parse>
  void value(std::string_view flag, Out& out, Parse parse, std::string what) {
    on(
        flag,
        [&out, parse = std::move(parse)](std::string_view text) {
          auto parsed = parse(text);
          if (parsed) out = static_cast<Out>(*parsed);
          return parsed.has_value();
        },
        std::move(what));
  }
  void text(std::string_view flag, std::string& out) {
    value(flag, out, [](std::string_view t) { return std::optional(t); },
          "a value");
  }
  /// An integer in [min, max]; the default cap keeps it within int.
  template <class Out>
  void integer(std::string_view flag, Out& out, long min,
               long max = std::numeric_limits<int>::max()) {
    value(flag, out,
          [min, max](std::string_view t) { return parse_int(t, min, max); },
          integer_range(min, max));
  }
  void number(std::string_view flag, double& out, double min,
              double max = std::numeric_limits<double>::max());
  void positive(std::string_view flag, double& out) {
    value(flag, out, parse_positive, "a number > 0");
  }
  void seed(std::string_view flag, std::uint64_t& out) {
    value(flag, out, parse_seed, "an unsigned integer");
  }
  void years(std::string_view flag, std::vector<double>& out) {
    value(flag, out, parse_years, "a comma list of numbers >= 0");
  }
  void choice(std::string_view flag, std::string& out,
              std::initializer_list<std::string_view> choices);

  /// What apply() found in argv.
  struct Outcome {
    bool help = false;       ///< --help or -h came before any error
    std::string error = {};  ///< the usage error; empty when all applied
    bool unknown = false;    ///< the error is an unregistered flag
  };
  /// Applies argv's flags in order, stopping at --help/-h or the first
  /// error. Never exits.
  Outcome apply(int argc, char** argv) const;
  /// apply(), then: --help prints the usage to stdout and exits 0; an
  /// error prints "<tool>: <error>" (plus the usage for an unknown flag)
  /// to stderr and exits 2.
  void parse(int argc, char** argv) const;

 private:
  struct Flag {
    std::string name;
    std::string what;  ///< empty for switches
    std::function<bool(std::string_view value)> apply;
  };
  static std::string integer_range(long min, long max);

  std::string tool_;
  Usage usage_;
  std::vector<Flag> flags_;
};

}  // namespace agingsim::cli
