#pragma once

// Monte-Carlo process-variation + stochastic-aging campaign engine
// (ROADMAP item 2, docs/MODEL.md "Reliability as a distribution").
//
// The deterministic aging pipeline answers "how slow is THE chip after N
// years"; real silicon is a population. Each MC trial samples one die:
//
//   overlay(trial) = correlated_variation_scales(die, grid, random)
//                  x stochastic_aging_scales(BTI scales at year Y)
//
// and scores it by replaying the canonical workload through the gate-level
// simulator (a block's dies ride in the lanes of one corner-parallel sweep
// by default, src/sim/corner_sim.hpp), yielding per-trial metrics —
// the settled worst-case delay and the rate of ops violating the
// evaluation period — per evaluation year. Aggregation turns the trial
// population into p50/p99/p99.99 quantile bands and a "failure probability
// vs clock period" surface (the fraction of dies whose aged worst-case
// delay exceeds each candidate period).
//
// Execution contract, inherited from the fault campaign:
//  - trials are grouped into fixed-size seed blocks; each block is one
//    runtime/ work unit whose payload is a bit-exact codec of its trial
//    records, so a campaign checkpointed under a RobustRunner resumes
//    byte-identically after SIGKILL;
//  - every per-trial stream is derived from (campaign seed, arch, trial)
//    alone — never from thread, block or restore order — so results are
//    byte-identical for any AGINGSIM_THREADS and any kill/resume pattern;
//  - the die-level variation component is sampled *stratified*: trial t
//    draws its die normal from stratum t mod strata of the standard
//    normal via the inverse CDF, which covers the distribution tails with
//    far fewer trials than plain sampling (variance reduction).

#include <cstdint>
#include <span>
#include <vector>

#include "src/aging/variation.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/workload/patterns.hpp"

namespace agingsim::mc {

struct McCampaignConfig {
  int width = 16;
  /// Architectures sampled side by side (one shared workload); the JSON
  /// surface deliverable uses {AM, CB, RB}.
  std::vector<MultiplierArch> arches = {MultiplierArch::kArray,
                                        MultiplierArch::kColumnBypass,
                                        MultiplierArch::kRowBypass};
  int trials = 1024;       ///< dies sampled per architecture
  int block = 32;          ///< trials per checkpoint unit (seed block)
  std::size_t ops = 256;   ///< workload patterns scored per trial
  std::uint64_t seed = 0x3C0FFEE;
  std::uint64_t workload_seed = 0xA61A5;
  /// Aging evaluation points; the failure surface is reported at the last
  /// entry (the ROADMAP's 7-year deliverable).
  std::vector<double> years = {0.0, 7.0};
  VariationModel variation{};
  double sigma_aging = 0.10;  ///< lognormal jitter on the BTI degradation
  int strata = 16;            ///< die-normal strata (1 = plain sampling)
  /// Evaluation period for the per-trial error-rate metric, as a fraction
  /// of the architecture's fresh nominal critical path. 0.58 is the repo's
  /// demonstration period (agingrun's default): tight enough that the aged
  /// delay distribution actually straddles it, so the error-rate bands
  /// separate fast-aging dies from the median instead of reading all-zero.
  double period_frac = 0.58;
  /// How trials are scored. kAuto (the default, like TraceOptions and
  /// CampaignRunOptions) resolves through AGINGSIM_KERNEL to batch unless
  /// the variable names a scalar kernel. kBatch packs a block's (trial,
  /// year) cells into the lanes of a CornerTimingSim: one value sweep per
  /// 64 operations, then the changed gates timed over 32 delay tables.
  /// kDense/kSparse replay every cell through its own compute_op_trace,
  /// the reference the corner path is tested against. All are
  /// bit-identical, so this is excluded from the config digest (a campaign
  /// checkpointed under one kernel resumes byte-identically under
  /// another).
  SimKernel kernel = SimKernel::kAuto;
};

/// Metrics of one (trial, year) cell. Everything downstream — bands,
/// surfaces, JSON — is a pure function of these records, so they are the
/// checkpoint payload unit.
struct McTrialRecord {
  double max_delay_ps = 0.0;     ///< settled worst-case op delay of this die
  double errors_per_10k = 0.0;   ///< ops violating the evaluation period
  friend bool operator==(const McTrialRecord&,
                         const McTrialRecord&) = default;
};

struct McArchResult {
  MultiplierArch arch = MultiplierArch::kArray;
  double fresh_critical_path_ps = 0.0;
  double period_ps = 0.0;  ///< the evaluation period the error rate is against
  /// Trials whose seed block was quarantined past the retry budget; their
  /// records are absent (chaos/fault injection only — a clean campaign
  /// completes every trial).
  std::uint64_t trials_quarantined = 0;
  /// Completed trials' records in trial order, years-major per trial:
  /// records[t * years.size() + y]. size() / years.size() = completed
  /// trials.
  std::vector<McTrialRecord> records;

  std::uint64_t trials_completed(std::size_t num_years) const noexcept {
    return num_years == 0 ? 0 : records.size() / num_years;
  }
};

struct McResult {
  std::vector<McArchResult> arches;  ///< config order
};

/// Options of one campaign execution; mirrors CampaignRunOptions.
struct McRunOptions {
  /// Crash-safe execution layer; null runs the plain parallel path. Work
  /// units are seed blocks, ordered arch-major: unit u covers arch
  /// u / blocks_per_arch, block u % blocks_per_arch.
  runtime::RobustRunner* runner = nullptr;
  runtime::RunReport* report = nullptr;
};

class McCampaign {
 public:
  /// Builds the shared per-arch state once (netlists, stress scenarios,
  /// deterministic base BTI overlays per year, workload patterns); trials
  /// only read it, so they fan out without synchronization.
  McCampaign(const TechLibrary& tech, McCampaignConfig config);

  McCampaign(const McCampaign&) = delete;
  McCampaign& operator=(const McCampaign&) = delete;
  ~McCampaign();  // out of line: ArchContext is incomplete here

  /// Runs every (arch, trial, year) cell and aggregates in unit order.
  /// Throws runtime::RunError(kTransient) when the runner's stop token cut
  /// the run short (completed blocks are checkpointed — resume, don't
  /// aggregate over holes).
  McResult run(const McRunOptions& options = {}) const;

  /// Records of one seed block (exposed for tests): trials
  /// [block*cfg.block, min((block+1)*cfg.block, trials)) of `arch_index`.
  std::vector<McTrialRecord> compute_block(std::size_t arch_index,
                                           std::size_t block) const;

  /// Fingerprint of everything that determines the work-unit payloads —
  /// the digest a CheckpointStore must be keyed by.
  std::uint64_t config_digest() const;

  std::size_t blocks_per_arch() const noexcept;
  std::size_t num_units() const noexcept {
    return config_.arches.size() * blocks_per_arch();
  }
  const McCampaignConfig& config() const noexcept { return config_; }
  /// Fresh nominal critical path of arch `i` (config order).
  double fresh_critical_path_ps(std::size_t i) const;

 private:
  struct ArchContext;

  /// Trial `trial`'s die: its per-gate delay scales at every evaluation
  /// year, in year order. The one statement of the per-trial draw
  /// sequence (seed -> die normal -> variation -> per-year scales).
  std::vector<std::vector<double>> sample_die(std::size_t arch_index,
                                              std::uint64_t trial) const;

  /// Records of trials [first, last): each (trial, year) replayed through
  /// its own compute_op_trace — the per-trial reference path.
  std::vector<McTrialRecord> score_traces(std::size_t arch_index,
                                          std::uint64_t first,
                                          std::uint64_t last,
                                          SimKernel kernel) const;

  /// Same records, the (trial, year) cells packed kCornerLanes at a time
  /// into the lanes of one CornerTimingSim, which takes the operations
  /// kBatchLanes at a time (one value sweep per word).
  std::vector<McTrialRecord> score_corners(std::size_t arch_index,
                                           std::uint64_t first,
                                           std::uint64_t last) const;

  const TechLibrary* tech_;
  McCampaignConfig config_;
  std::vector<OperandPattern> patterns_;
  std::vector<ArchContext> arch_contexts_;
};

/// Bit-exact codec for one seed block's records (ByteWriter/ByteReader
/// discipline: a decode of an encode is field-wise identical, the property
/// the byte-identical-resume contract rests on). decode throws
/// RunError(kCorrupt) on malformed payloads.
std::string encode_mc_block(std::span<const McTrialRecord> records);
std::vector<McTrialRecord> decode_mc_block(const std::string& payload);

}  // namespace agingsim::mc
