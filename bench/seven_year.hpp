#pragma once

// Shared implementation of the paper's Figs. 26 and 27: normalized latency,
// power and EDP of the AM, FLCB, FLRB, A-VLCB and A-VLRB over seven years
// of BTI aging. The fixed-latency designs are re-guard-banded to their aged
// critical path each year (that is what "fixed" costs under aging); the
// variable-latency designs keep their generous fixed cycle period, chosen
// so no timing violations occur, exactly as in the paper's setup.

#include <array>
#include <filesystem>
#include <optional>

#include "bench/common.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/fold.hpp"
#include "src/runtime/serial.hpp"

namespace agingsim::bench {

inline void run_seven_year_figure(const char* fig, int width,
                                  double vl_period_ps, int skip) {
  const TechLibrary& t = tech();
  const BtiModel model = BtiModel::calibrated(t);
  const auto pats = workload(width, default_ops());

  struct Arch {
    MultiplierNetlist mult;
    AgingScenario scenario;
    Arch(MultiplierArch a, int w, const TechLibrary& tl, const BtiModel& m)
        : mult(build_multiplier(a, w)),
          scenario(mult.netlist, tl, m, 0x26F1, 1000) {}
  };
  Arch am(MultiplierArch::kArray, width, t, model);
  Arch cb(MultiplierArch::kColumnBypass, width, t, model);
  Arch rb(MultiplierArch::kRowBypass, width, t, model);

  constexpr int kDesigns = 5;  // AM FLCB FLRB A-VLCB A-VLRB
  const char* names[kDesigns] = {"AM", "FLCB", "FLRB", "A-VLCB", "A-VLRB"};
  std::array<std::array<RunStats, kDesigns>, 8> stats;

  // One independent simulator per (year, design): the year rows are units
  // of the shared fold (src/runtime/fold.hpp) on a RobustRunner, each
  // replaying the shared pattern set through its own aged trace.
  // Results land in year order, so output is byte-identical to the serial
  // sweep for any AGINGSIM_THREADS setting — and, because each year row is
  // persisted as one checkpoint unit the moment it completes, a run killed
  // mid-sweep and restarted with AGINGSIM_CHECKPOINT_DIR set resumes with
  // byte-identical figures (docs/ROBUSTNESS.md).
  const auto compute_year_row = [&](std::size_t y) {
    const double year = static_cast<double>(y);
    const auto run_fixed = [&](const Arch& a) {
      const auto scales = a.scenario.delay_scales_at(year);
      const auto trace = compute_op_trace(a.mult, t, pats, scales);
      FixedLatencySystem sys(a.mult, t);
      return sys.run(trace, critical_path_ps(a.mult, t, scales),
                     a.scenario.mean_dvth_at(year));
    };
    const auto run_vl = [&](const Arch& a) {
      const auto scales = a.scenario.delay_scales_at(year);
      const auto trace = compute_op_trace(a.mult, t, pats, scales);
      VlSystemConfig cfg;
      cfg.period_ps = vl_period_ps;
      cfg.ahl.width = width;
      cfg.ahl.skip = skip;
      VariableLatencySystem sys(a.mult, t, cfg);
      return sys.run(trace, a.scenario.mean_dvth_at(year));
    };
    return std::vector<RunStats>{run_fixed(am), run_fixed(cb), run_fixed(rb),
                                 run_vl(cb), run_vl(rb)};
  };

  runtime::RunnerConfig runner_config = runtime::RunnerConfig::from_env();
  std::optional<runtime::CheckpointStore> store;
  // str_var treats an empty value as unset, so AGINGSIM_CHECKPOINT_DIR=""
  // means "no checkpoints" instead of "checkpoint into the current dir".
  if (const auto dir = env::str_var("AGINGSIM_CHECKPOINT_DIR")) {
    runtime::Digest digest;
    digest.mix(std::string_view("seven_year/v1"))
        .mix(std::string_view(fig))
        .mix(width)
        .mix(vl_period_ps)
        .mix(skip)
        .mix(static_cast<std::uint64_t>(pats.size()));
    store.emplace(std::filesystem::path(*dir) / fig, digest.value());
    const runtime::CheckpointScan scan = store->load();
    std::fprintf(stderr, "%s: checkpoints: %zu year rows restored, %zu "
                 "stale files discarded\n", fig, scan.loaded, scan.discarded);
    runner_config.checkpoints = &*store;
  }
  runtime::RobustRunner runner(runner_config);
  runtime::RunReport report;
  const auto rows = runtime::run_units<std::vector<RunStats>>(
      std::size_t{8},
      {.compute = compute_year_row,
       .encode = runtime::encode_run_stats_row,
       .decode = runtime::decode_run_stats_row,
       .runner = &runner,
       .report = &report});
  for (int year = 0; year <= 7; ++year) {
    const auto& row = rows[static_cast<std::size_t>(year)];
    if (!row) {
      // A figure with holes is worthless: surface the first failure.
      const runtime::UnitOutcome& u =
          report.units[static_cast<std::size_t>(year)];
      throw runtime::RunError(u.category, std::string(fig) +
                                              ": year row quarantined: " +
                                              u.error);
    }
    for (int d = 0; d < kDesigns; ++d) {
      stats[year][static_cast<std::size_t>(d)] =
          row->at(static_cast<std::size_t>(d));
    }
  }

  const double lat0 = stats[0][0].avg_latency_ps;
  const double pow0 = stats[0][0].avg_power_mw;
  const double edp0 = stats[0][0].edp_mw_ns2;

  const auto emit = [&](const char* what, auto get, double norm) {
    Table tab(std::string(fig) + " normalized " + what + " (AM year 0 = 1)",
              {"year", "AM", "FLCB", "FLRB", "A-VLCB", "A-VLRB"});
    for (int year = 0; year <= 7; ++year) {
      std::vector<std::string> row = {std::to_string(year)};
      for (int d = 0; d < kDesigns; ++d) {
        row.push_back(Table::fmt(get(stats[year][d]) / norm, 3));
      }
      tab.add_row(std::move(row));
    }
    tab.print(std::cout);
    std::printf("%s increase year0 -> year7:", what);
    for (int d = 0; d < kDesigns; ++d) {
      std::printf("  %s %+0.2f%%", names[d],
                  100.0 * (get(stats[7][d]) / get(stats[0][d]) - 1.0));
    }
    std::printf("\n\n");
  };

  emit("latency", [](const RunStats& s) { return s.avg_latency_ps; }, lat0);
  emit("power", [](const RunStats& s) { return s.avg_power_mw; }, pow0);
  emit("EDP", [](const RunStats& s) { return s.edp_mw_ns2; }, edp0);

  std::uint64_t vl_errors = 0;
  for (int year = 0; year <= 7; ++year) {
    vl_errors += stats[year][3].errors + stats[year][4].errors;
  }
  std::printf("VL designs' timing violations across all years: %llu "
              "(expected 0: the %.1f ns period was chosen with margin)\n",
              static_cast<unsigned long long>(vl_errors),
              ns(vl_period_ps));
}

}  // namespace agingsim::bench
