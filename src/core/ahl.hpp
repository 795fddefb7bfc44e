#pragma once

#include <algorithm>
#include <cstdint>

#include "src/core/aging_indicator.hpp"
#include "src/core/judging.hpp"

namespace agingsim {

/// Configuration of the Adaptive Hold Logic circuit (paper Fig. 12).
struct AhlConfig {
  int width = 16;
  /// Base skip number: the first judging block is Skip-`skip`, the second is
  /// Skip-`skip+second_block_offset`.
  int skip = 7;
  /// false models the *traditional* variable-latency design (T-VLCB/T-VLRB):
  /// a single judging block, no aging indicator, no adaptation.
  bool adaptive = true;
  /// How much stricter the second judging block is. The paper uses n+1
  /// (offset 1); the ablation bench sweeps this.
  int second_block_offset = 1;
  AgingIndicatorConfig indicator{};

  /// Error-storm graceful degradation (resilience extension, docs/FAULTS.md).
  /// When enabled, the AHL watches the Razor error rate over windows of
  /// `indicator.window_ops` operations; once the rate reaches
  /// `storm_error_threshold` the circuit falls back to always-two-cycle
  /// issue — every path then fits the relaxed timing, so a delay-faulted
  /// part keeps producing correct (if slower) results instead of thrashing
  /// in re-execution or silently corrupting data. After
  /// `storm_calm_windows` consecutive windows below the threshold the AHL
  /// returns to normal judging (re-probing the silicon; if the fault
  /// persists, the storm re-engages one window later).
  bool storm_fallback = false;
  double storm_error_threshold = 0.30;
  int storm_calm_windows = 2;
};

/// Base skip number the campaign front-ends (agingrun, agingd) use for a
/// `width`-bit multiplier: the paper's Skip-7, or width - 1 below 8 bits,
/// where Skip-7 is out of range or never issues a one-cycle operation.
constexpr int default_skip(int width) { return std::min(7, width - 1); }

/// The AHL circuit: two judging blocks (Skip-k and Skip-(k+1)), an aging
/// indicator and the selecting MUX. Decides, per input pattern, whether the
/// operation is issued as one cycle or two; consumes the Razor error
/// feedback to detect significant aging and switch judging blocks.
class AdaptiveHoldLogic {
 public:
  explicit AdaptiveHoldLogic(AhlConfig config);

  /// Cycles the arriving pattern is issued with (1 or 2). `judging_operand`
  /// is the multiplicand for column-bypassing, the multiplicator for
  /// row-bypassing (paper Fig. 8).
  int decide_cycles(std::uint64_t judging_operand) const noexcept;

  /// Feeds one operation's Razor outcome back into the aging indicator.
  /// No-op for the non-adaptive (traditional) configuration.
  void record_outcome(bool razor_error);

  /// True once the aging indicator has switched to the second judging block.
  bool using_second_block() const noexcept {
    return config_.adaptive && indicator_.aged();
  }

  /// True while the error-storm fallback is forcing two-cycle issue.
  bool storm_active() const noexcept { return storm_active_; }
  /// Times the fallback engaged / recovered since construction.
  std::uint64_t storm_engagements() const noexcept { return storm_engagements_; }
  std::uint64_t storm_recoveries() const noexcept { return storm_recoveries_; }

  const AhlConfig& config() const noexcept { return config_; }
  const AgingIndicator& indicator() const noexcept { return indicator_; }

 private:
  AhlConfig config_;
  JudgingBlock first_;
  JudgingBlock second_;
  AgingIndicator indicator_;

  // Error-storm fallback state (all inert unless config_.storm_fallback).
  int storm_trip_count_ = 0;  // errors per window that constitute a storm
  int storm_ops_in_window_ = 0;
  int storm_errors_in_window_ = 0;
  int calm_streak_ = 0;
  bool storm_active_ = false;
  std::uint64_t storm_engagements_ = 0;
  std::uint64_t storm_recoveries_ = 0;
};

}  // namespace agingsim
