#pragma once

// Deterministic chaos injection for the campaign runtime — the software
// dual of the hardware FaultOverlay (docs/ROBUSTNESS.md). A policy is a
// seeded, rate-controlled decision function over (work unit, attempt):
// identical runs make identical chaos decisions, so every recovery path
// (retry, quarantine, resume-after-crash) can be exercised repeatably in
// CI. Enabled via AGINGSIM_CHAOS=seed:rate[:actions] with actions a subset
// of "t" (transient throw), "p" (permanent throw), "s" (cooperative stall)
// and "c" (simulated crash — the process _Exit()s with kCrashExitCode
// after a seed-determined number of completed units; scheduled by the
// RobustRunner so each crashed run still makes forward progress and a
// resume loop always terminates).

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace agingsim::runtime {

/// Exit code of a chaos-simulated crash, distinguishable from real
/// failures by resume loops (CI restarts the run while it sees this code).
inline constexpr int kCrashExitCode = 86;

enum class ChaosAction {
  kNone,
  kThrowTransient,  ///< RunError(kTransient): must be absorbed by retry
  kThrowPermanent,  ///< RunError(kPermanent): must quarantine, not abort
  kStall,           ///< busy-wait polling the cancel token (watchdog prey)
};

std::string_view chaos_action_name(ChaosAction action);

/// The fields of a `seed:rate[:actions]` chaos spec, the grammar shared by
/// AGINGSIM_CHAOS (ChaosPolicy) and AGINGSIM_SERVE_CHAOS
/// (serve::ServeChaosConfig).
struct ChaosSpec {
  std::uint64_t seed = 0;
  double rate = 0.0;    ///< in [0, 1]
  std::string actions;  ///< non-empty, every letter from the allowed set
};

/// Splits and checks a chaos spec: a whole-field integer seed in
/// `seed_base` (0 also takes 0x/0 prefixes), a rate in [0, 1], and an
/// optional non-empty actions field drawn from `allowed` that replaces
/// `default_actions`. Each entry point keeps its own action set, default
/// and seed base. Returns nullopt for a malformed spec and fills *error
/// with the reason.
std::optional<ChaosSpec> split_chaos_spec(std::string_view spec,
                                          std::string_view allowed,
                                          std::string_view default_actions,
                                          int seed_base,
                                          std::string* error = nullptr);

struct ChaosPolicy {
  std::uint64_t seed = 0;
  double rate = 0.0;  ///< per-(unit, attempt) injection probability
  bool throw_transient = true;
  bool throw_permanent = false;
  bool stall = false;
  bool crash = false;
  std::chrono::milliseconds stall_duration{50};

  bool enabled() const noexcept { return rate > 0.0; }

  /// Parses "seed:rate[:actions]"; actions defaults to "t". Returns
  /// nullopt (and fills *error) for malformed specs: non-numeric fields,
  /// rate outside [0, 1], unknown action letters.
  static std::optional<ChaosPolicy> parse(std::string_view spec,
                                          std::string* error = nullptr);

  /// Policy from AGINGSIM_CHAOS; a malformed value warns once on stderr
  /// and yields a disabled policy (chaos must never break a real run).
  static ChaosPolicy from_env();

  /// Pure decision for one task attempt. Independent of process history,
  /// so a resumed campaign quarantines exactly the units an uninterrupted
  /// one would — the byte-identical-output contract survives chaos.
  ChaosAction decide(std::uint64_t unit, int attempt) const;

  /// Number of completed units after which a run under this policy
  /// simulates a crash (0 = never). Varies with `epoch` (units already
  /// checkpointed when the run started) so each resume draws a fresh crash
  /// point and the resume loop provably terminates: a crash is only
  /// scheduled after at least one more unit has been persisted.
  std::uint64_t crash_after_units(std::uint64_t epoch) const;
};

}  // namespace agingsim::runtime
