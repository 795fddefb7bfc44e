#pragma once

#include <cstdint>

namespace agingsim {

/// splitmix64 (Steele, Lea & Flood): advances `state` by the golden-ratio
/// increment and returns the mixed word. It seeds Rng, keys the chaos
/// layers' decisions and drives agingload's backoff jitter.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The stateless form: one splitmix64 step from state `x`, a 64-bit hash.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  return splitmix64(x);
}

/// The top 53 bits of `x` as a uniform double in [0, 1).
constexpr double to_unit_interval(std::uint64_t x) noexcept {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Deterministic xoshiro256** PRNG (Blackman & Vigna). Self-contained so
/// every experiment in the repository is bit-reproducible across platforms
/// and standard-library versions (std::mt19937 streams are portable, but
/// distribution implementations are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform `width`-bit operand (width in [1, 64]).
  std::uint64_t next_bits(int width) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace agingsim
