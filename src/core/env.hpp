#pragma once

// One strict, warn-on-reject parser for every AGINGSIM_* environment
// variable (the full table lives in docs/OBSERVABILITY.md). Before this
// header existed, bench/common.hpp used std::atol (which silently accepts
// trailing garbage: "12abc" -> 12) while the runtime and the thread pool
// each carried their own strtol wrapper — three parsers, three behaviors.
// The contract here:
//
//  - the whole string must parse (no trailing garbage, no empty fields);
//  - a rejected value warns once per distinct (name, value) pair on
//    stderr — variables like AGINGSIM_THREADS are re-read at every
//    parallel region, and a sweep must not emit hundreds of identical
//    warnings — and falls back, never aborts;
//  - values above an explicit ceiling are clamped (with the same
//    once-only warning) rather than rejected, so "AGINGSIM_THREADS=9999"
//    degrades to the 256-lane maximum instead of to a surprise default.

#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace agingsim::env {

/// Strict integer parse of an entire string: an optional '-', then digits
/// (base 10, or with base 0 a 0x prefix for hex and a leading 0 for
/// octal). nullopt on empty input, a leading blank or '+', trailing
/// garbage or overflow.
std::optional<long> parse_long(std::string_view text, int base = 10);
/// parse_long's grammar without the '-'.
std::optional<unsigned long long> parse_u64(std::string_view text,
                                            int base = 10);
/// Strict double parse of an entire string: an optional '-', then a
/// decimal or 0x-hex floating literal as strtod reads it. nullopt on empty
/// input, a leading blank or '+', trailing garbage, or a result that is
/// out of range or not finite.
std::optional<double> parse_double(std::string_view text);

/// Reads `name` as a strict integer in [min_value, clamp_max]. Returns
/// nullopt when the variable is unset or empty, and — after a once-only
/// stderr warning — when it fails to parse or is below min_value. Values
/// above clamp_max warn once and come back clamped.
std::optional<long> long_var(
    const char* name, long min_value,
    long clamp_max = std::numeric_limits<long>::max());

/// long_var with a fallback for the unset/rejected cases — the shape most
/// call sites want: AGINGSIM_BENCH_OPS, AGINGSIM_TRACE_CAPACITY, ...
long long_or(const char* name, long fallback, long min_value,
             long clamp_max = std::numeric_limits<long>::max());

/// Reads `name` as a string; nullopt when unset or empty (an empty
/// AGINGSIM_CHECKPOINT_DIR means "no checkpoints", not "current dir").
std::optional<std::string> str_var(const char* name);

/// Reads `name` and matches it (exact, case-sensitive) against `choices`.
/// Returns the matched index; unset/empty is silently nullopt, and a value
/// matching no choice warns once (listing the accepted spellings) and
/// returns nullopt so the caller's default wins — AGINGSIM_KERNEL=Batch
/// must degrade loudly to the default kernel, never abort a campaign.
std::optional<std::size_t> choice_var(const char* name,
                                      std::span<const char* const> choices);

}  // namespace agingsim::env
