#pragma once

// Quantile-band and failure-surface reporting over McCampaign results.
// Pure functions of the trial records: the JSON artifact is byte-identical
// for any thread count and any checkpoint kill/resume pattern because the
// records are (docs/MODEL.md "Reliability as a distribution").

#include <vector>

#include "src/mc/mc_campaign.hpp"
#include "src/report/json.hpp"

namespace agingsim::mc {

/// The three reported quantiles of one metric across the completed trials,
/// nearest-rank convention (src/core/quantile.hpp) — always actual trial
/// values, so p50 <= p99 <= p99_99 holds exactly.
struct QuantileBand {
  double p50 = 0.0;
  double p99 = 0.0;
  double p99_99 = 0.0;
};

/// Band of the worst-case die delay at evaluation-year index `year_index`.
QuantileBand delay_band(const McArchResult& arch, std::size_t num_years,
                        std::size_t year_index);

/// Band of the per-die violation rate at `year_index`.
QuantileBand error_band(const McArchResult& arch, std::size_t num_years,
                        std::size_t year_index);

/// Failure probability vs clock period: failure_probability[k] is the
/// fraction of completed dies whose worst-case delay at `year_index`
/// exceeds period_ps[k] — the probability a part clocked at that period
/// misses timing after the configured aging horizon. Monotonically
/// non-increasing in the period by construction.
struct FailureSurface {
  std::vector<double> period_ps;
  std::vector<double> failure_probability;
};

/// Periods span [lo_frac x min, hi_frac x max] of the completed dies'
/// delays at `year_index`, `points` evenly spaced samples — the axis is
/// anchored to the sampled population, not the STA critical path, because
/// random workloads rarely exercise the structural worst path (especially
/// in bypassing multipliers) and an STA-anchored axis would put every die
/// comfortably inside the period. The sweep therefore always captures the
/// full 1 -> 0 transition of the curve. Empty when no trials completed.
FailureSurface failure_surface(const McArchResult& arch,
                               std::size_t num_years, std::size_t year_index,
                               double lo_frac, double hi_frac, int points);

/// Surface shape knobs carried by the JSON emitter.
struct McReportOptions {
  int surface_points = 29;
};

/// Emits the campaign's "mc" JSON object (config echo, per-arch quantile
/// bands per year, per-arch failure surface at the last year) into an open
/// JsonWriter object scope.
void write_mc_json(JsonWriter& json, const McCampaignConfig& config,
                   const McResult& result, const McReportOptions& options);

}  // namespace agingsim::mc
