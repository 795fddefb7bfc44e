// Fig. 7 — trend of circuit aging for the 16x16 column- and row-bypassing
// multipliers: critical-path delay over a seven-year NBTI/PBTI stress.
//
// Paper: the BTI effect increases the critical-path delay by ~13% over
// seven years at 125 C on 32nm high-k/metal-gate models.

#include <string>

#include "bench/common.hpp"

using namespace agingsim;

static int bench_body() {
  bench::preamble("Fig. 7", "critical-path delay over 7 years, 16x16 CB/RB");
  const TechLibrary& tech = bench::tech();

  Table t("Aged critical-path delay (ns)",
          {"year", "CB16", "CB16 vs year0", "RB16", "RB16 vs year0",
           "mean dVth (mV)"});

  const MultiplierNetlist cb = build_column_bypass_multiplier(16);
  const MultiplierNetlist rb = build_row_bypass_multiplier(16);
  const BtiModel model = BtiModel::calibrated(tech);
  AgingScenario cb_sc(cb.netlist, tech, model, 0xA6E, 2000);
  AgingScenario rb_sc(rb.netlist, tech, model, 0xA6E, 2000);
  const double cb0 = critical_path_ps(cb, tech);
  const double rb0 = critical_path_ps(rb, tech);

  for (int year = 0; year <= 7; ++year) {
    const auto cb_scales = cb_sc.delay_scales_at(year);
    const auto rb_scales = rb_sc.delay_scales_at(year);
    const double cb_crit = critical_path_ps(cb, tech, cb_scales);
    const double rb_crit = critical_path_ps(rb, tech, rb_scales);
    std::string cb_drift = "+", rb_drift = "+";
    cb_drift += Table::pct(cb_crit / cb0 - 1.0, 2);
    rb_drift += Table::pct(rb_crit / rb0 - 1.0, 2);
    t.add_row({std::to_string(year), Table::fmt(bench::ns(cb_crit), 3),
               cb_drift, Table::fmt(bench::ns(rb_crit), 3), rb_drift,
               Table::fmt(cb_sc.mean_dvth_at(year) * 1000.0, 1)});
  }
  t.print(std::cout);
  std::printf(
      "Reproduction target: ~13%% critical-path degradation at year 7\n"
      "(paper Fig. 7), with the characteristic t^(1/6) saturating shape —\n"
      "most of the drift lands in the first two years.\n");
  return 0;
}

AGINGSIM_BENCH_MAIN("bench_fig07_aging_trend", bench_body)
