// Domain example: lifetime planning. A deployment question the paper's
// Section IV-C machinery answers directly: given a 16x16 column-bypassing
// multiplier that must survive seven years of BTI aging, which (cycle
// period, skip number) should we ship?
//
// For every candidate configuration this sweeps the aged circuit at years
// 0, 3 and 7, reports the worst average latency over the lifetime, and
// recommends the configuration with the best end-of-life latency. It also
// shows the cost of the naive alternative — guard-banding a fixed-latency
// design for year-7 silicon.

#include <cstdio>
#include <vector>

#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/report/table.hpp"
#include "src/workload/patterns.hpp"

#include <iostream>

using namespace agingsim;

int main() {
  const TechLibrary tech = calibrated_tech_library();
  const MultiplierNetlist mult = build_column_bypass_multiplier(16);
  const BtiModel model = BtiModel::calibrated(tech);
  AgingScenario scenario(mult.netlist, tech, model, 0x11FE, 1000);

  Rng rng(7);
  const auto patterns = uniform_patterns(rng, 16, 4000);

  const double years[] = {0.0, 3.0, 7.0};
  std::vector<std::vector<OpTrace>> traces;
  for (double y : years) {
    const auto scales = scenario.delay_scales_at(y);
    traces.push_back(compute_op_trace(
        mult, tech, patterns, TraceOptions{.gate_delay_scale = scales}));
  }
  const double aged_crit = critical_path_ps(
      mult, tech, scenario.delay_scales_at(7.0));

  Table t("16x16 A-VLCB lifetime sweep (avg latency, ns)",
          {"period (ns)", "skip", "year 0", "year 3", "year 7",
           "lifetime worst", "year-7 err/10k"});
  double best_worst = 1e18, best_period = 0.0;
  int best_skip = 0;
  for (double period : {750.0, 850.0, 950.0, 1050.0, 1150.0}) {
    for (int skip : {7, 8, 9}) {
      VlSystemConfig cfg;
      cfg.period_ps = period;
      cfg.ahl.width = 16;
      cfg.ahl.skip = skip;
      VariableLatencySystem sys(mult, tech, cfg);
      double worst = 0.0, err7 = 0.0;
      std::vector<std::string> row = {Table::fmt(period / 1000.0, 2),
                                      std::to_string(skip)};
      for (std::size_t yi = 0; yi < 3; ++yi) {
        const RunStats s =
            sys.run(traces[yi], scenario.mean_dvth_at(years[yi]));
        row.push_back(Table::fmt(s.avg_latency_ps / 1000.0, 3));
        worst = std::max(worst, s.avg_latency_ps);
        if (yi == 2) err7 = s.errors_per_10k_ops;
      }
      row.push_back(Table::fmt(worst / 1000.0, 3));
      row.push_back(Table::fmt(err7, 0));
      t.add_row(std::move(row));
      if (worst < best_worst) {
        best_worst = worst;
        best_period = period;
        best_skip = skip;
      }
    }
  }
  t.print(std::cout);

  std::printf("Recommended configuration: period %.2f ns, Skip-%d — "
              "lifetime-worst avg latency %.3f ns.\n",
              best_period / 1000.0, best_skip, best_worst / 1000.0);
  std::printf("Naive fixed-latency alternative (guard-band for year-7 "
              "critical path): %.3f ns every operation, %.1f%% slower.\n",
              aged_crit / 1000.0,
              100.0 * (aged_crit / best_worst - 1.0));
  return 0;
}
