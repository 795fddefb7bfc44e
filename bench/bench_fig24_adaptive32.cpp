// Fig. 24 — average latency comparison between the 32x32 adaptive and
// traditional variable-latency multipliers on the 7-year-aged circuit,
// panels (a) Skip-15, (b) Skip-16, (c) Skip-17.

#include "bench/common.hpp"

using namespace agingsim;
using namespace agingsim::bench;

static int bench_body() {
  preamble("Fig. 24",
           "avg latency, adaptive vs traditional VL, 32x32, aged 7 years");
  const BtiModel model = BtiModel::calibrated(tech());

  MultiplierNetlist cb = build_column_bypass_multiplier(32);
  MultiplierNetlist rb = build_row_bypass_multiplier(32);
  AgingScenario cb_sc(cb.netlist, tech(), model, 0x24F1, 1000);
  AgingScenario rb_sc(rb.netlist, tech(), model, 0x24F1, 1000);
  const auto cb_scales = cb_sc.delay_scales_at(7.0);
  const auto rb_scales = rb_sc.delay_scales_at(7.0);
  const auto pats = workload(32, default_ops());
  const auto cb_trace = compute_op_trace(
      cb, tech(), pats, TraceOptions{.gate_delay_scale = cb_scales});
  const auto rb_trace = compute_op_trace(
      rb, tech(), pats, TraceOptions{.gate_delay_scale = rb_scales});
  const double cb_dvth = cb_sc.mean_dvth_at(7.0);
  const double rb_dvth = rb_sc.mean_dvth_at(7.0);

  std::printf("Aged fixed-latency baselines (ns): FLCB %.2f   FLRB %.2f\n\n",
              ns(critical_path_ps(cb, tech(), cb_scales)),
              ns(critical_path_ps(rb, tech(), rb_scales)));

  const auto periods = linspace(1200.0, 2600.0, 15);
  for (int skip : {15, 16, 17}) {
    const auto t_cb =
        sweep_periods(cb, cb_trace, periods, skip, false, cb_dvth);
    const auto a_cb =
        sweep_periods(cb, cb_trace, periods, skip, true, cb_dvth);
    const auto t_rb =
        sweep_periods(rb, rb_trace, periods, skip, false, rb_dvth);
    const auto a_rb =
        sweep_periods(rb, rb_trace, periods, skip, true, rb_dvth);
    Table t("Skip-" + std::to_string(skip) + " avg latency (ns), aged",
            {"period", "T-VLCB", "A-VLCB", "T-VLRB", "A-VLRB"});
    for (std::size_t i = 0; i < periods.size(); ++i) {
      t.add_row({Table::fmt(ns(periods[i]), 2),
                 Table::fmt(ns(t_cb[i].avg_latency_ps), 3),
                 Table::fmt(ns(a_cb[i].avg_latency_ps), 3),
                 Table::fmt(ns(t_rb[i].avg_latency_ps), 3),
                 Table::fmt(ns(a_rb[i].avg_latency_ps), 3)});
    }
    t.print(std::cout);
  }
  std::printf(
      "Reproduction targets: as in Fig. 23, the adaptive hold logic is\n"
      "never worse and wins visibly at short cycle periods.\n");
  return 0;
}

AGINGSIM_BENCH_MAIN("bench_fig24_adaptive32", bench_body)
