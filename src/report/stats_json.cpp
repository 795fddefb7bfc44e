#include "src/report/stats_json.hpp"

namespace agingsim {

void write_run_stats(JsonWriter& json, const RunStats& s) {
  json.key("period_ps").value(s.period_ps);
  json.key("ops").value(s.ops);
  json.key("one_cycle_ratio").value(s.one_cycle_ratio);
  json.key("errors").value(s.errors);
  json.key("errors_per_10k_ops").value(s.errors_per_10k_ops);
  json.key("avg_cycles").value(s.avg_cycles);
  json.key("avg_latency_ps").value(s.avg_latency_ps);
  json.key("avg_power_mw").value(s.avg_power_mw);
  json.key("edp_mw_ns2").value(s.edp_mw_ns2);
}

void write_campaign_stats(JsonWriter& json, const FaultCampaignStats& s) {
  json.key("trials").value(s.trials);
  json.key("trials_quarantined").value(s.trials_quarantined);
  json.key("ops").value(s.ops);
  json.key("faults_injected").value(s.faults_injected);
  json.key("detected_violations").value(s.detected_violations);
  json.key("escaped_violations").value(s.escaped_violations);
  json.key("uncovered_violations").value(s.uncovered_violations);
  json.key("detection_coverage").value(s.detection_coverage);
  json.key("sdc_ops").value(s.sdc_ops);
  json.key("sdc_per_10k_ops").value(s.sdc_per_10k_ops);
  json.key("masked_faults").value(s.masked_faults);
  json.key("trials_with_sdc").value(s.trials_with_sdc);
  json.key("storm_engagements").value(s.storm_engagements);
  json.key("storm_recoveries").value(s.storm_recoveries);
  json.key("avg_cycles_baseline").value(s.avg_cycles_baseline);
  json.key("avg_cycles_faulty").value(s.avg_cycles_faulty);
  json.key("throughput_degradation").value(s.throughput_degradation);
  json.key("baseline_errors_per_10k_ops")
      .value(s.baseline_errors_per_10k_ops);
}

}  // namespace agingsim
