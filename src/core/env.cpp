#include "src/core/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

namespace agingsim::env {
namespace {

/// One warning per distinct (name, value) pair for the whole process —
/// AGINGSIM_THREADS alone is re-read at every parallel region.
void warn_once(const char* name, std::string_view value, const char* what) {
  static std::mutex mutex;
  static std::set<std::string> warned;
  const std::string key =
      std::string(name) + "=" + std::string(value) + "|" + what;
  std::lock_guard lk(mutex);
  if (!warned.insert(key).second) return;
  std::fprintf(stderr, "%s='%s' %s\n", name,
               std::string(value).c_str(), what);
}

/// Empty, or starting where strtol, strtoull and strtod are laxer than the
/// documented grammar: they skip leading blanks and take a '+'.
bool empty_or_loose_start(std::string_view text) {
  return text.empty() || text[0] == '+' ||
         std::isspace(static_cast<unsigned char>(text[0])) != 0;
}

}  // namespace

std::optional<long> parse_long(std::string_view text, int base) {
  if (empty_or_loose_start(text)) return std::nullopt;
  const std::string buf(text);
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(buf.c_str(), &end, base);
  if (end == buf.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<unsigned long long> parse_u64(std::string_view text, int base) {
  // strtoull silently negates "-1" instead of failing.
  if (empty_or_loose_start(text) || text[0] == '-') return std::nullopt;
  const std::string buf(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, base);
  if (end == buf.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_double(std::string_view text) {
  if (empty_or_loose_start(text)) return std::nullopt;
  const std::string buf(text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<long> long_var(const char* name, long min_value,
                             long clamp_max) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  const auto parsed = parse_long(raw);
  if (!parsed.has_value() || *parsed < min_value) {
    char what[96];
    std::snprintf(what, sizeof what, "ignored (want integer >= %ld)",
                  min_value);
    warn_once(name, raw, what);
    return std::nullopt;
  }
  if (*parsed > clamp_max) {
    char what[96];
    std::snprintf(what, sizeof what, "clamped to the maximum of %ld",
                  clamp_max);
    warn_once(name, raw, what);
    return clamp_max;
  }
  return *parsed;
}

long long_or(const char* name, long fallback, long min_value,
             long clamp_max) {
  return long_var(name, min_value, clamp_max).value_or(fallback);
}

std::optional<std::string> str_var(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  return std::string(raw);
}

std::optional<std::size_t> choice_var(const char* name,
                                      std::span<const char* const> choices) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  const std::string_view value(raw);
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (value == choices[i]) return i;
  }
  std::string what = "ignored (want one of:";
  for (const char* c : choices) {
    what += ' ';
    what += c;
  }
  what += ')';
  warn_once(name, raw, what.c_str());
  return std::nullopt;
}

}  // namespace agingsim::env
