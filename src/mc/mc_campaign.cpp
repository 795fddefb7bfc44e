#include "src/mc/mc_campaign.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "src/aging/bti.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/quantile.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/fold.hpp"
#include "src/runtime/serial.hpp"
#include "src/sim/corner_sim.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::mc {
namespace {

struct McMetrics {
  const obs::Counter& runs = obs::counter("mc.runs");
  const obs::Counter& trials = obs::counter("mc.trials_completed");
  const obs::Counter& blocks = obs::counter("mc.blocks_completed");
};

const McMetrics& mc_metrics() {
  static const McMetrics m;
  return m;
}

/// Per-trial seed, a pure function of (campaign seed, arch, trial): block
/// size, thread count and restore order can never shift a trial's streams.
std::uint64_t trial_seed(std::uint64_t campaign_seed, std::size_t arch_index,
                         std::uint64_t trial) {
  runtime::Digest d;
  d.mix(std::string_view("mc-trial/v1"))
      .mix(campaign_seed)
      .mix(static_cast<std::uint64_t>(arch_index))
      .mix(trial);
  return d.value();
}

/// One (trial, year) cell's metrics from its worst settle and its count of
/// ops past the evaluation period.
McTrialRecord make_record(double max_delay_ps, std::uint64_t violations,
                          std::size_t ops) {
  return McTrialRecord{.max_delay_ps = max_delay_ps,
                       .errors_per_10k = static_cast<double>(violations) *
                                         10000.0 / static_cast<double>(ops)};
}

}  // namespace

/// Shared read-only per-architecture state: the netlist, its fresh critical
/// path, the evaluation period, and the deterministic base BTI overlay per
/// evaluation year (the trajectory every die's stochastic aging jitters
/// around).
struct McCampaign::ArchContext {
  MultiplierNetlist mult;
  double fresh_crit_ps = 0.0;
  double period_ps = 0.0;
  std::vector<std::vector<double>> year_scales;  // [year][gate]

  ArchContext(MultiplierArch arch, int width, const TechLibrary& tech,
              const McCampaignConfig& cfg)
      : mult(build_multiplier(arch, width)) {
    fresh_crit_ps = critical_path_ps(mult, tech);
    period_ps = cfg.period_frac * fresh_crit_ps;
    const BtiModel model = BtiModel::calibrated(tech);
    // Stress extraction is seeded from the campaign seed (not per trial):
    // the workload-dependent stress profile is a property of the design,
    // the per-die randomness rides on top of it.
    const AgingScenario scenario(mult.netlist, tech, model,
                                 cfg.seed ^ 0x57e55ULL, 1000);
    year_scales.reserve(cfg.years.size());
    for (const double year : cfg.years) {
      year_scales.push_back(scenario.delay_scales_at(year));
    }
  }
};

McCampaign::~McCampaign() = default;

McCampaign::McCampaign(const TechLibrary& tech, McCampaignConfig config)
    : tech_(&tech), config_(std::move(config)) {
  if (config_.trials < 1) {
    throw std::invalid_argument("McCampaign: trials must be >= 1");
  }
  if (config_.block < 1) {
    throw std::invalid_argument("McCampaign: block must be >= 1");
  }
  if (config_.ops < 1) {
    throw std::invalid_argument("McCampaign: ops must be >= 1");
  }
  if (config_.strata < 1) {
    throw std::invalid_argument("McCampaign: strata must be >= 1");
  }
  if (config_.arches.empty()) {
    throw std::invalid_argument("McCampaign: at least one architecture");
  }
  if (config_.years.empty()) {
    throw std::invalid_argument("McCampaign: at least one evaluation year");
  }
  for (const double year : config_.years) {
    if (!std::isfinite(year)) {
      throw std::invalid_argument("McCampaign: evaluation years must be finite");
    }
  }
  if (!(config_.period_frac > 0.0)) {
    throw std::invalid_argument("McCampaign: period_frac must be > 0");
  }
  Rng rng(config_.workload_seed);
  patterns_ = uniform_patterns(rng, config_.width, config_.ops);
  arch_contexts_.reserve(config_.arches.size());
  for (const MultiplierArch arch : config_.arches) {
    arch_contexts_.emplace_back(arch, config_.width, *tech_, config_);
  }
}

std::size_t McCampaign::blocks_per_arch() const noexcept {
  const std::size_t trials = static_cast<std::size_t>(config_.trials);
  const std::size_t block = static_cast<std::size_t>(config_.block);
  return (trials + block - 1) / block;
}

double McCampaign::fresh_critical_path_ps(std::size_t i) const {
  return arch_contexts_.at(i).fresh_crit_ps;
}

std::vector<std::vector<double>> McCampaign::sample_die(
    std::size_t arch_index, std::uint64_t trial) const {
  const ArchContext& arch = arch_contexts_[arch_index];
  Rng rng(trial_seed(config_.seed, arch_index, trial));
  // Stratified die-level normal: trial t samples stratum t mod strata of
  // the standard normal through the inverse CDF, so `strata` trials cover
  // the whole distribution — including the slow tail that dominates the
  // p99.99 band — instead of clustering around the median.
  const std::uint64_t stratum =
      trial % static_cast<std::uint64_t>(config_.strata);
  double u = rng.next_double();
  while (u <= 0.0) u = rng.next_double();
  const double stratified_u =
      (static_cast<double>(stratum) + u) / static_cast<double>(config_.strata);
  const double die_z = quantile::inverse_normal_cdf(stratified_u);

  const std::uint64_t variation_seed = rng.next();
  const std::uint64_t aging_seed = rng.next();
  const std::vector<double> variation = correlated_variation_scales(
      arch.mult.netlist, config_.variation, variation_seed, die_z);

  std::vector<std::vector<double>> scales;
  scales.reserve(config_.years.size());
  for (std::size_t y = 0; y < config_.years.size(); ++y) {
    // One aging_seed across years: the jitter is the die's device-level
    // trait, so a die that ages fast at year 1 ages fast at year 7 too.
    scales.push_back(stochastic_aging_scales(arch.year_scales[y],
                                             config_.sigma_aging, aging_seed));
    accumulate_scales(scales.back(), variation);
  }
  return scales;
}

std::vector<McTrialRecord> McCampaign::score_traces(std::size_t arch_index,
                                                    std::uint64_t first,
                                                    std::uint64_t last,
                                                    SimKernel kernel) const {
  const ArchContext& arch = arch_contexts_[arch_index];
  std::vector<McTrialRecord> records;
  records.reserve(static_cast<std::size_t>(last - first) *
                  config_.years.size());
  for (std::uint64_t t = first; t < last; ++t) {
    for (const std::vector<double>& scales : sample_die(arch_index, t)) {
      const auto trace = compute_op_trace(
          arch.mult, *tech_, patterns_,
          TraceOptions{.gate_delay_scale = scales, .kernel = kernel});
      double max_delay = 0.0;
      std::uint64_t violations = 0;
      for (const OpTrace& op : trace) {
        max_delay = std::max(max_delay, op.delay_ps);
        if (op.delay_ps > arch.period_ps) ++violations;
      }
      records.push_back(make_record(max_delay, violations, trace.size()));
    }
  }
  return records;
}

std::vector<McTrialRecord> McCampaign::score_corners(
    std::size_t arch_index, std::uint64_t first, std::uint64_t last) const {
  const ArchContext& arch = arch_contexts_[arch_index];
  const MultiplierNetlist& mult = arch.mult;
  const std::size_t years = config_.years.size();
  const std::size_t cells = static_cast<std::size_t>(last - first) * years;
  std::vector<McTrialRecord> records(cells);
  CornerTimingSim sim(mult.netlist, *tech_);
  std::vector<Logic> inputs(mult.netlist.num_inputs(), Logic::kZero);

  // Cell c = (trial - first) * years + y rides in lane c % kCornerLanes of
  // pass c / kCornerLanes — records order. A die whose years straddle two
  // passes is drawn once; its remaining years wait in `die`.
  std::vector<std::vector<double>> die;
  std::size_t next_year = years;
  std::uint64_t next_trial = first;
  for (std::size_t cell = 0; cell < cells; cell += kCornerLanes) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(kCornerLanes, cells - cell));
    const std::uint64_t pass = cell / kCornerLanes;
    {
      obs::TraceSpan span("mc.sample", pass);
      for (int lane = 0; lane < lanes; ++lane) {
        if (next_year == years) {
          die = sample_die(arch_index, next_trial++);
          next_year = 0;
        }
        sim.set_lane_scales(lane, die[next_year++]);
      }
    }

    obs::TraceSpan span("mc.score", pass);
    sim.power_up(lanes);
    std::array<double, kCornerLanes> max_delay{};
    std::array<std::uint64_t, kCornerLanes> violations{};
    for (std::size_t i = 0; i < patterns_.size(); ++i) {
      const OperandPattern& pat = patterns_[i];
      load_bus(inputs, pat.a, mult.width, mult.a_first_input);
      load_bus(inputs, pat.b, mult.width, mult.b_first_input);
      const std::span<const double> settle = sim.step(inputs);
      check_golden_product(i, pat.a, pat.b,
                           reference_multiply(pat.a, pat.b, mult.width),
                           sim.output_bits());
      for (int l = 0; l < kCornerLanes; ++l) {
        max_delay[l] = std::max(max_delay[l], settle[l]);
        violations[l] += settle[l] > arch.period_ps ? 1u : 0u;
      }
    }
    for (int l = 0; l < lanes; ++l) {
      records[cell + static_cast<std::size_t>(l)] =
          make_record(max_delay[l], violations[l], patterns_.size());
    }
  }
  return records;
}

std::vector<McTrialRecord> McCampaign::compute_block(std::size_t arch_index,
                                                     std::size_t block) const {
  obs::TraceSpan span("mc.block", block);
  (void)arch_contexts_.at(arch_index);  // bounds-check before the loop
  const std::uint64_t first =
      static_cast<std::uint64_t>(block) *
      static_cast<std::uint64_t>(config_.block);
  const std::uint64_t last =
      std::min(first + static_cast<std::uint64_t>(config_.block),
               static_cast<std::uint64_t>(config_.trials));
  const SimKernel kernel = resolve_kernel(config_.kernel);
  std::vector<McTrialRecord> records =
      kernel == SimKernel::kBatch
          ? score_corners(arch_index, first, last)
          : score_traces(arch_index, first, last, kernel);
  mc_metrics().trials.add(last - first);
  mc_metrics().blocks.add();
  return records;
}

std::uint64_t McCampaign::config_digest() const {
  runtime::Digest d;
  d.mix(std::string_view("McCampaign/v1"));
  d.mix(config_.width)
      .mix(config_.trials)
      .mix(config_.block)
      .mix(static_cast<std::uint64_t>(config_.ops))
      .mix(config_.seed)
      .mix(config_.workload_seed)
      .mix(config_.sigma_aging)
      .mix(config_.strata)
      .mix(config_.period_frac);
  d.mix(config_.variation.sigma_random)
      .mix(config_.variation.sigma_grid)
      .mix(config_.variation.grid_levels)
      .mix(config_.variation.sigma_die);
  d.mix(static_cast<std::uint64_t>(config_.arches.size()));
  for (const MultiplierArch arch : config_.arches) {
    d.mix(static_cast<int>(arch));
  }
  d.mix(static_cast<std::uint64_t>(config_.years.size()));
  for (const double year : config_.years) d.mix(year);
  // Deliberately NOT mixed: kernel (bit-identical kernels, cross-kernel
  // resume is part of the contract) and thread/runner settings.
  return d.value();
}

McResult McCampaign::run(const McRunOptions& options) const {
  obs::TraceSpan run_span("mc.run", num_units());
  mc_metrics().runs.add();
  const std::size_t blocks = blocks_per_arch();
  const std::size_t units = num_units();

  McResult result;
  result.arches.resize(config_.arches.size());
  for (std::size_t a = 0; a < config_.arches.size(); ++a) {
    McArchResult& arch_result = result.arches[a];
    arch_result.arch = config_.arches[a];
    arch_result.fresh_critical_path_ps = arch_contexts_[a].fresh_crit_ps;
    arch_result.period_ps = arch_contexts_[a].period_ps;
  }

  // Unit u is seed block u % blocks of arch u / blocks; its payload is the
  // block's records through the bit-exact block codec.
  runtime::RunReport local_report;
  runtime::RunReport& report =
      options.report != nullptr ? *options.report : local_report;
  const auto block_records = runtime::run_units<std::vector<McTrialRecord>>(
      units,
      {.compute = [&](std::uint64_t unit) {
         return compute_block(static_cast<std::size_t>(unit) / blocks,
                              static_cast<std::size_t>(unit) % blocks);
       },
       .encode = encode_mc_block,
       .decode = decode_mc_block,
       .runner = options.runner,
       .report = &report});
  runtime::throw_if_interrupted(report, "McCampaign");
  // Aggregate in unit order — the only order that exists in the result —
  // so restored, retried and freshly computed blocks land identically.
  for (std::size_t u = 0; u < units; ++u) {
    McArchResult& arch_result = result.arches[u / blocks];
    if (!block_records[u]) {
      const std::size_t first = (u % blocks) * static_cast<std::size_t>(
                                                  config_.block);
      const std::size_t last =
          std::min(first + static_cast<std::size_t>(config_.block),
                   static_cast<std::size_t>(config_.trials));
      arch_result.trials_quarantined += last - first;
      continue;
    }
    arch_result.records.insert(arch_result.records.end(),
                               block_records[u]->begin(),
                               block_records[u]->end());
  }
  return result;
}

std::string encode_mc_block(std::span<const McTrialRecord> records) {
  runtime::ByteWriter w;
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const McTrialRecord& r : records) {
    w.f64(r.max_delay_ps).f64(r.errors_per_10k);
  }
  return w.take();
}

std::vector<McTrialRecord> decode_mc_block(const std::string& payload) {
  runtime::ByteReader r(payload);
  const std::uint32_t n = r.u32();
  r.expect_records(n, 16);  // two f64 per record
  std::vector<McTrialRecord> records(n);
  for (McTrialRecord& rec : records) {
    rec.max_delay_ps = r.f64();
    rec.errors_per_10k = r.f64();
  }
  r.expect_end();
  return records;
}

}  // namespace agingsim::mc
