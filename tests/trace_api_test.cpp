// Edge-case coverage for the trace/system API surface that the benches and
// examples lean on.

#include <gtest/gtest.h>

#include "src/core/vl_multiplier.hpp"
#include "src/workload/patterns.hpp"

namespace agingsim {
namespace {

TEST(TraceApiTest, EmptyPatternListYieldsEmptyTraceAndStats) {
  const MultiplierNetlist m = build_column_bypass_multiplier(4);
  const TechLibrary& t = default_tech_library();
  const std::vector<OperandPattern> none;
  const auto trace = compute_op_trace(m, t, none);
  EXPECT_TRUE(trace.empty());

  VlSystemConfig cfg;
  cfg.period_ps = 500.0;
  cfg.ahl.width = 4;
  cfg.ahl.skip = 2;
  VariableLatencySystem sys(m, t, cfg);
  const RunStats s = sys.run(trace);
  EXPECT_EQ(s.ops, 0u);
  EXPECT_DOUBLE_EQ(s.avg_latency_ps, 0.0);
  EXPECT_DOUBLE_EQ(s.avg_power_mw, 0.0);
}

TEST(TraceApiTest, FirstOpHasNoRegisterToggles) {
  const MultiplierNetlist m = build_array_multiplier(4);
  const TechLibrary& t = default_tech_library();
  const std::vector<OperandPattern> pats = {{0xF, 0xF}, {0xF, 0xF}, {0x0, 0xF}};
  const auto trace = compute_op_trace(m, t, pats);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].in_toggles, 0);   // power-up transition not charged
  EXPECT_EQ(trace[0].out_toggles, 0);
  EXPECT_EQ(trace[1].in_toggles, 0);   // identical operands
  EXPECT_EQ(trace[1].out_toggles, 0);
  EXPECT_EQ(trace[2].in_toggles, 4);   // a: 0xF -> 0x0
  EXPECT_GT(trace[2].out_toggles, 0);  // product changed
}

TEST(TraceApiTest, RepeatedOperandsAreOneCycleFriendlyAndFree) {
  // A stalled pipeline repeating one operand pair: zero delay after the
  // first op, so any period accepts it as one cycle without Razor errors.
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const TechLibrary& t = default_tech_library();
  std::vector<OperandPattern> pats(50, OperandPattern{0x0F, 0x3C});
  const auto trace = compute_op_trace(m, t, pats);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace[i].delay_ps, 0.0);
    EXPECT_DOUBLE_EQ(trace[i].switched_cap_ff, 0.0);
  }
  VlSystemConfig cfg;
  cfg.period_ps = 50.0;  // absurdly fast
  cfg.ahl.width = 8;
  cfg.ahl.skip = 4;      // 0x0F has 4 zeros: one-cycle
  VariableLatencySystem sys(m, t, cfg);
  const RunStats s = sys.run(trace);
  // Only the power-up transition can violate (and at this absurd period it
  // falls outside the shadow window, so it lands in `undetected`).
  EXPECT_EQ(s.one_cycle_ops, 50u);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_LE(s.undetected, 1u);
}

TEST(TraceApiTest, StatsAreDeterministicAcrossRuns) {
  const MultiplierNetlist m = build_row_bypass_multiplier(8);
  const TechLibrary& t = default_tech_library();
  Rng rng(77);
  const auto pats = uniform_patterns(rng, 8, 500);
  const auto trace = compute_op_trace(m, t, pats);
  VlSystemConfig cfg;
  cfg.period_ps = 400.0;
  cfg.ahl.width = 8;
  cfg.ahl.skip = 4;
  VariableLatencySystem sys(m, t, cfg);
  const RunStats a = sys.run(trace);
  const RunStats b = sys.run(trace);  // AHL state must reset between runs
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_DOUBLE_EQ(a.total_energy_fj, b.total_energy_fj);
  EXPECT_EQ(a.switched_to_second_block, b.switched_to_second_block);
}

TEST(TraceApiTest, TraceGeneratorIsTheCorrectnessOracle) {
  // Feeding an aged overlay of the wrong size must throw, not mis-simulate.
  const MultiplierNetlist m = build_array_multiplier(4);
  const TechLibrary& t = default_tech_library();
  Rng rng(5);
  const auto pats = uniform_patterns(rng, 4, 10);
  const std::vector<double> wrong(3, 1.0);
  EXPECT_THROW(
      compute_op_trace(m, t, pats, TraceOptions{.gate_delay_scale = wrong}),
      std::invalid_argument);
}

TEST(TraceApiTest, RunStatsEnergyBreakdownIsExhaustive) {
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const TechLibrary& t = default_tech_library();
  Rng rng(6);
  const auto trace = compute_op_trace(m, t, uniform_patterns(rng, 8, 200));
  FixedLatencySystem fixed(m, t);
  const RunStats s = fixed.run(trace, critical_path_ps(m, t), 0.02);
  EXPECT_NEAR(s.total_energy_fj,
              s.comb_energy_fj + s.register_energy_fj + s.ahl_energy_fj +
                  s.leakage_energy_fj,
              1e-9);
  EXPECT_DOUBLE_EQ(s.ahl_energy_fj, 0.0);  // fixed design has no AHL
}

}  // namespace
}  // namespace agingsim
