#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "src/core/vl_multiplier.hpp"
#include "src/fault/fault.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {

/// Configuration of one fault-injection campaign: `trials` independent
/// injections of `sites_per_trial` faults of one kind, each replayed over
/// the same operand stream through the full Razor + AHL architecture.
struct FaultCampaignConfig {
  FaultKind kind = FaultKind::kStuckAt0;
  int trials = 20;
  int sites_per_trial = 1;
  /// Delay multiplier applied per faulted gate (kDelayOutlier only). A
  /// moderate factor keeps faulted paths inside the Razor shadow window
  /// (detectable); a large one pushes them past 2T (uncoverable — SDC).
  double delay_factor = 4.0;
  std::uint64_t seed = 0xFA17;
};

/// Aggregate results of a campaign. The three violation counters partition
/// every timing violation seen across all trials by detector outcome; the
/// SDC / masked counters classify the *architectural* outcome per op.
struct FaultCampaignStats {
  FaultKind kind = FaultKind::kStuckAt0;
  std::uint64_t trials = 0;
  std::uint64_t ops = 0;               ///< total ops across all trials
  std::uint64_t faults_injected = 0;   ///< total fault sites across trials

  std::uint64_t detected_violations = 0;   ///< Razor flagged + re-executed
  std::uint64_t escaped_violations = 0;    ///< in-window metastability miss
  std::uint64_t uncovered_violations = 0;  ///< settled past the shadow window
  std::uint64_t sdc_ops = 0;               ///< wrong product committed
  std::uint64_t masked_faults = 0;         ///< fault present, output correct
  std::uint64_t trials_with_sdc = 0;
  std::uint64_t storm_engagements = 0;
  std::uint64_t storm_recoveries = 0;
  /// Trials whose worker task failed past the runtime's retry budget and
  /// was quarantined (crash-safe runs only; see runtime::RobustRunner).
  /// Quarantined trials contribute to no other counter: `trials` counts
  /// completed trials only, so `trials + trials_quarantined` equals the
  /// configured trial count.
  std::uint64_t trials_quarantined = 0;

  /// detected / (detected + escaped + uncovered); 1.0 when no violations.
  double detection_coverage = 1.0;
  double sdc_per_10k_ops = 0.0;
  double avg_cycles_faulty = 0.0;
  double avg_cycles_baseline = 0.0;
  /// avg_cycles_faulty / avg_cycles_baseline - 1: the throughput cost of
  /// surviving the faults (re-execution penalties + storm fallback).
  double throughput_degradation = 0.0;
  double baseline_errors_per_10k_ops = 0.0;

  /// Exact field-wise equality — campaigns must be bit-reproducible across
  /// thread counts (see tests/parallel_determinism_test.cpp).
  friend bool operator==(const FaultCampaignStats&,
                         const FaultCampaignStats&) = default;
};

/// Delay-outlier cluster on the multiplier's output cone: multiplies the
/// delay of the driver gate of every `stride`-th primary output by
/// `factor`. Unlike uniformly random sites — which mostly land off the
/// short paths that one-cycle patterns exercise, precisely because the
/// bypassing architecture keeps those paths shallow — every operation's
/// path crosses this region, so the overlay reliably produces the error
/// storms the AHL graceful-degradation fallback is designed for (modeling
/// e.g. an aged final adder row or a slow voltage domain).
FaultOverlay output_cone_delay_overlay(const Netlist& netlist, double factor,
                                       int stride = 2);

/// q-th percentile (q in [0, 1]) of the per-op path delays; 0 for an empty
/// trace. Used to pick demonstration periods with a known violation rate.
///// Nearest-rank convention (src/core/quantile.hpp): the smallest delay d
/// such that at least q*N of the ops are <= d — the historic floor(q*N)
/// index sat one rank high of this.
double delay_percentile_ps(std::span<const OpTrace> trace, double q);

/// Largest per-op path delay in the trace (0 for an empty trace). A period
/// of at least half this keeps two-cycle issue sound even under delay
/// faults.
double max_delay_ps(std::span<const OpTrace> trace);

/// Options of one crash-safe campaign execution (`FaultCampaign::run`).
struct CampaignRunOptions {
  std::span<const double> gate_delay_scale = {};
  double mean_dvth_v = 0.0;
  /// Step kernel for the gate-level traces (kAuto: AGINGSIM_KERNEL, default
  /// batch). Deliberately NOT part of config_digest: kernels are
  /// bit-identical, so a campaign checkpointed under one kernel resumes
  /// byte-identically under another.
  SimKernel kernel = SimKernel::kAuto;
  /// Crash-safe execution layer (retry/backoff, watchdog, quarantine,
  /// checkpoint/resume — docs/ROBUSTNESS.md). Null runs the plain parallel
  /// path. Work units: unit 0 is the fault-free baseline, units 1..trials
  /// are the trials, so a checkpoint store attached to the runner resumes
  /// a killed campaign with byte-identical results.
  runtime::RobustRunner* runner = nullptr;
  /// Filled with per-unit outcomes when `runner` is given.
  runtime::RunReport* report = nullptr;
  /// Incremental progress (crash-safe path only; requires `runner`).
  /// Invoked in strict unit order as the completion frontier advances:
  /// units_done counts finished units (unit 0 = baseline, so trials done
  /// = units_done - 1 once > 0), units_total = trials + 1, and `partial`
  /// aggregates the first units_done units. Deterministic: the partial
  /// stats at a given units_done are a pure function of the campaign
  /// config, independent of thread count or restore pattern — the
  /// property the serving layer's streaming resume contract rests on
  /// (docs/SERVING.md). Called from pool threads, serialized.
  std::function<void(std::uint64_t units_done, std::uint64_t units_total,
                     const FaultCampaignStats& partial)>
      progress = {};
};

/// Drives fault-injection campaigns against one multiplier + system config.
/// Each trial samples fresh fault sites (seeded — campaigns are
/// bit-reproducible), computes a faulty gate-level trace via a FaultOverlay
/// (the shared netlist is never mutated) and replays it through a
/// VariableLatencySystem.
class FaultCampaign {
 public:
  FaultCampaign(const MultiplierNetlist& mult, const TechLibrary& tech,
                VlSystemConfig system, FaultCampaignConfig config);

  /// Samples the overlay for one trial (exposed for tests and custom
  /// harnesses). `num_ops` bounds the transient cycles.
  FaultOverlay sample_overlay(Rng& rng, std::size_t num_ops) const;

  /// Runs the whole campaign over `patterns` with an optional aging overlay.
  FaultCampaignStats run(std::span<const OperandPattern> patterns,
                         std::span<const double> gate_delay_scale = {},
                         double mean_dvth_v = 0.0) const;

  /// Crash-safe variant: same statistics, executed under the options'
  /// RobustRunner when one is given. Throws runtime::RunError(kPermanent)
  /// if the baseline unit itself is quarantined — no faulty trial can be
  /// normalized without it.
  FaultCampaignStats run(std::span<const OperandPattern> patterns,
                         const CampaignRunOptions& options) const;

  /// Fingerprint of everything that determines this campaign's work-unit
  /// payloads (multiplier, system config, campaign config, workload,
  /// aging overlay) — the config digest a CheckpointStore must be keyed
  /// by, so stale checkpoints from a different setup are discarded.
  std::uint64_t config_digest(std::span<const OperandPattern> patterns,
                              std::span<const double> gate_delay_scale = {},
                              double mean_dvth_v = 0.0) const;

  const FaultCampaignConfig& config() const noexcept { return config_; }

 private:
  const MultiplierNetlist* mult_;
  const TechLibrary* tech_;
  VlSystemConfig system_;
  FaultCampaignConfig config_;
};

}  // namespace agingsim
