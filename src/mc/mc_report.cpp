#include "src/mc/mc_report.hpp"

#include <algorithm>
#include <cstddef>

#include "src/core/quantile.hpp"

namespace agingsim::mc {
namespace {

/// The emitted failure surface's period axis, as fractions of the
/// population's min and max delay.
constexpr double kSurfaceLoFrac = 0.95;
constexpr double kSurfaceHiFrac = 1.05;

/// Ascending per-trial values of one metric at one evaluation year.
std::vector<double> metric_at_year(const McArchResult& arch,
                                   std::size_t num_years,
                                   std::size_t year_index,
                                   double McTrialRecord::*metric) {
  std::vector<double> values;
  if (num_years == 0) return values;
  const std::size_t trials = arch.records.size() / num_years;
  values.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    values.push_back(arch.records[t * num_years + year_index].*metric);
  }
  std::sort(values.begin(), values.end());
  return values;
}

QuantileBand band_of(std::vector<double> sorted) {
  QuantileBand band;
  band.p50 = quantile::nearest_rank(sorted, 0.50);
  band.p99 = quantile::nearest_rank(sorted, 0.99);
  band.p99_99 = quantile::nearest_rank(sorted, 0.9999);
  return band;
}

void emit_band(JsonWriter& json, const char* key, const QuantileBand& band) {
  json.key(key).begin_object();
  json.key("p50").value(band.p50);
  json.key("p99").value(band.p99);
  json.key("p99_99").value(band.p99_99);
  json.end_object();
}

}  // namespace

QuantileBand delay_band(const McArchResult& arch, std::size_t num_years,
                        std::size_t year_index) {
  return band_of(metric_at_year(arch, num_years, year_index,
                                &McTrialRecord::max_delay_ps));
}

QuantileBand error_band(const McArchResult& arch, std::size_t num_years,
                        std::size_t year_index) {
  return band_of(metric_at_year(arch, num_years, year_index,
                                &McTrialRecord::errors_per_10k));
}

FailureSurface failure_surface(const McArchResult& arch,
                               std::size_t num_years, std::size_t year_index,
                               double lo_frac, double hi_frac, int points) {
  FailureSurface surface;
  if (points < 1) return surface;
  const auto delays = metric_at_year(arch, num_years, year_index,
                                     &McTrialRecord::max_delay_ps);
  if (delays.empty()) return surface;
  surface.period_ps.reserve(static_cast<std::size_t>(points));
  surface.failure_probability.reserve(static_cast<std::size_t>(points));
  const double lo = lo_frac * delays.front();
  const double hi = hi_frac * delays.back();
  for (int k = 0; k < points; ++k) {
    const double period =
        points == 1 ? lo
                    : lo + (hi - lo) * static_cast<double>(k) /
                               static_cast<double>(points - 1);
    // delays is sorted ascending: the failing dies are the strict-upper
    // tail above the period.
    const auto first_ok = std::upper_bound(delays.begin(), delays.end(),
                                           period);
    const std::size_t failing =
        static_cast<std::size_t>(delays.end() - first_ok);
    surface.period_ps.push_back(period);
    surface.failure_probability.push_back(
        delays.empty() ? 0.0
                       : static_cast<double>(failing) /
                             static_cast<double>(delays.size()));
  }
  return surface;
}

void write_mc_json(JsonWriter& json, const McCampaignConfig& config,
                   const McResult& result, const McReportOptions& options) {
  const std::size_t num_years = config.years.size();
  json.key("mc").begin_object();
  json.key("trials_per_arch").value(config.trials);
  json.key("block").value(config.block);
  json.key("ops_per_trial").value(static_cast<std::uint64_t>(config.ops));
  json.key("seed").value(config.seed);
  json.key("workload_seed").value(config.workload_seed);
  json.key("strata").value(config.strata);
  json.key("period_frac").value(config.period_frac);
  json.key("sigma").begin_object();
  json.key("random").value(config.variation.sigma_random);
  json.key("grid").value(config.variation.sigma_grid);
  json.key("grid_levels").value(config.variation.grid_levels);
  json.key("die").value(config.variation.sigma_die);
  json.key("aging").value(config.sigma_aging);
  json.end_object();
  json.key("years").begin_array();
  for (const double year : config.years) json.value(year);
  json.end_array();

  json.key("arches").begin_array();
  for (const McArchResult& arch : result.arches) {
    json.begin_object();
    json.key("arch").value(arch_name(arch.arch));
    json.key("width").value(config.width);
    json.key("fresh_critical_path_ps").value(arch.fresh_critical_path_ps);
    json.key("period_ps").value(arch.period_ps);
    json.key("trials_completed").value(arch.trials_completed(num_years));
    json.key("trials_quarantined").value(arch.trials_quarantined);

    json.key("bands").begin_array();
    for (std::size_t y = 0; y < num_years; ++y) {
      json.begin_object();
      json.key("years").value(config.years[y]);
      emit_band(json, "max_delay_ps", delay_band(arch, num_years, y));
      emit_band(json, "errors_per_10k", error_band(arch, num_years, y));
      json.end_object();
    }
    json.end_array();

    // The deliverable surface: failure probability after the full aging
    // horizon (the last configured year) vs candidate clock period.
    const FailureSurface surface = failure_surface(
        arch, num_years, num_years - 1, kSurfaceLoFrac, kSurfaceHiFrac,
        options.surface_points);
    json.key("failure_surface").begin_object();
    json.key("years").value(config.years.back());
    json.key("period_ps").begin_array();
    for (const double p : surface.period_ps) json.value(p);
    json.end_array();
    json.key("failure_probability").begin_array();
    for (const double f : surface.failure_probability) json.value(f);
    json.end_array();
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

}  // namespace agingsim::mc
