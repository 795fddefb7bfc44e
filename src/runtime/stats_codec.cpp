#include "src/runtime/stats_codec.hpp"

#include "src/runtime/serial.hpp"

namespace agingsim::runtime {
namespace {

// Bump when RunStats gains/loses fields so stale checkpoints are rejected.
constexpr std::uint32_t kRunStatsFields = 26;

void encode_into(ByteWriter& w, const RunStats& s) {
  w.u32(kRunStatsFields);
  w.u64(s.ops)
      .u64(s.one_cycle_ops)
      .u64(s.two_cycle_ops)
      .u64(s.errors)
      .u64(s.undetected)
      .u64(s.razor_escapes)
      .u64(s.sdc_ops)
      .u64(s.masked_faults)
      .u64(s.total_cycles)
      .boolean(s.switched_to_second_block)
      .u64(s.storm_engagements)
      .u64(s.storm_recoveries)
      .u64(s.storm_ops)
      .f64(s.period_ps)
      .f64(s.avg_cycles)
      .f64(s.avg_latency_ps)
      .f64(s.one_cycle_ratio)
      .f64(s.errors_per_10k_ops)
      .f64(s.sdc_per_10k_ops)
      .f64(s.total_energy_fj)
      .f64(s.comb_energy_fj)
      .f64(s.register_energy_fj)
      .f64(s.ahl_energy_fj)
      .f64(s.leakage_energy_fj)
      .f64(s.avg_power_mw)
      .f64(s.edp_mw_ns2);
}

RunStats decode_from(ByteReader& r) {
  const std::uint32_t fields = r.u32();
  if (fields != kRunStatsFields) {
    throw RunError(ErrorCategory::kCorrupt,
                   "RunStats codec: field-count skew (payload " +
                       std::to_string(fields) + ", binary " +
                       std::to_string(kRunStatsFields) + ")");
  }
  RunStats s;
  s.ops = r.u64();
  s.one_cycle_ops = r.u64();
  s.two_cycle_ops = r.u64();
  s.errors = r.u64();
  s.undetected = r.u64();
  s.razor_escapes = r.u64();
  s.sdc_ops = r.u64();
  s.masked_faults = r.u64();
  s.total_cycles = r.u64();
  s.switched_to_second_block = r.boolean();
  s.storm_engagements = r.u64();
  s.storm_recoveries = r.u64();
  s.storm_ops = r.u64();
  s.period_ps = r.f64();
  s.avg_cycles = r.f64();
  s.avg_latency_ps = r.f64();
  s.one_cycle_ratio = r.f64();
  s.errors_per_10k_ops = r.f64();
  s.sdc_per_10k_ops = r.f64();
  s.total_energy_fj = r.f64();
  s.comb_energy_fj = r.f64();
  s.register_energy_fj = r.f64();
  s.ahl_energy_fj = r.f64();
  s.leakage_energy_fj = r.f64();
  s.avg_power_mw = r.f64();
  s.edp_mw_ns2 = r.f64();
  return s;
}

}  // namespace

std::string encode_run_stats(const RunStats& stats) {
  ByteWriter w;
  encode_into(w, stats);
  return w.take();
}

RunStats decode_run_stats(std::string_view payload) {
  ByteReader r(payload);
  const RunStats s = decode_from(r);
  r.expect_end();
  return s;
}

std::string encode_run_stats_row(std::span<const RunStats> row) {
  ByteWriter w;
  w.u64(row.size());
  for (const RunStats& s : row) encode_into(w, s);
  return w.take();
}

std::vector<RunStats> decode_run_stats_row(std::string_view payload) {
  static const std::size_t kRecordBytes = encode_run_stats(RunStats{}).size();
  ByteReader r(payload);
  const std::uint64_t count = r.u64();
  r.expect_records(count, kRecordBytes);
  std::vector<RunStats> row;
  row.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) row.push_back(decode_from(r));
  r.expect_end();
  return row;
}

}  // namespace agingsim::runtime
