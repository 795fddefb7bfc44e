// Edge-case coverage for the trace/system API surface that the benches and
// examples lean on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/aging/bti.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/sim/value_sweep.hpp"
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

// compute_op_trace_range: a range past op 0 starts from the values a
// values-only sweep of the ops before it leaves, yet every op must equal
// the whole trace's, field for field.

/// The bypass Tbufs disabled after ops [0, n) of `patterns`.
std::vector<GateId> disabled_tbufs(const MultiplierNetlist& m,
                                   std::span<const OperandPattern> patterns,
                                   std::size_t n) {
  ValueSweep sweep(m.netlist);
  std::vector<std::uint64_t> words(m.netlist.num_inputs());
  for (std::size_t done = 0; done < n; done += kBatchLanes) {
    const std::size_t lanes = std::min<std::size_t>(kBatchLanes, n - done);
    for (std::size_t l = 0; l < lanes; ++l) {
      const OperandPattern& p = patterns[done + l];
      load_bus_lane(words, p.a, m.width, m.a_first_input, static_cast<int>(l));
      load_bus_lane(words, p.b, m.width, m.b_first_input, static_cast<int>(l));
    }
    sweep.step_word(words, static_cast<int>(lanes));
  }
  std::vector<GateId> disabled;
  for (GateId g = 0; g < m.netlist.num_gates(); ++g) {
    if (m.netlist.gate(g).kind != CellKind::kTbuf) continue;
    const NetId enable = m.netlist.gate_inputs(g)[1];
    if (sweep.values()[enable] == Logic::kZero) disabled.push_back(g);
  }
  return disabled;
}

using ArchWidth = std::tuple<MultiplierArch, int>;

class TraceRangeTest : public ::testing::TestWithParam<ArchWidth> {};

TEST_P(TraceRangeTest, EveryRangeEqualsTheWholeTrace) {
  const auto [arch, width] = GetParam();
  const MultiplierNetlist m = build_multiplier(arch, width);
  const TechLibrary& tech = default_tech_library();
  const AgingScenario scenario(m.netlist, tech, BtiModel::calibrated(tech),
                               0x7EA2, 1000);
  const std::vector<double> aged = scenario.delay_scales_at(7.0);
  Rng rng(20261020);
  // Two FIR taps of 500 ops: each fixes one operand for its 500 ops, so a
  // range that starts inside a tap starts with bypass keepers holding.
  std::vector<OperandPattern> fir = fir_tap_patterns(rng, width, 500);
  const auto tap = fir_tap_patterns(rng, width, 500);
  fir.insert(fir.end(), tap.begin(), tap.end());
  const auto uniform = uniform_patterns(rng, width, 1000);
  // [first, last): on a word boundary (448 = 7 x 64) and off one, across
  // the taps' seam, one op, and to the end of the stream.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {448, 512}, {300, 777}, {499, 500}, {937, 1000}};

  using Stream = std::pair<const char*, const std::vector<OperandPattern>*>;
  for (const auto& [label, ops] :
       {Stream{"fir_tap", &fir}, Stream{"uniform", &uniform}}) {
    for (const bool is_aged : {false, true}) {
      const TraceOptions options{
          .gate_delay_scale = is_aged ? std::span<const double>(aged)
                                      : std::span<const double>(),
          .kernel = SimKernel::kBatch};
      const auto whole = compute_op_trace(m, tech, *ops, options);
      for (const auto& [first, last] : ranges) {
        SCOPED_TRACE(testing::Message()
                     << label << (is_aged ? ", 7 years" : ", fresh")
                     << ", ops [" << first << ", " << last << ")");
        std::vector<OpTrace> part(last - first);
        compute_op_trace_range(m, tech, *ops, first, part, options);
        for (std::size_t i = 0; i < part.size(); ++i) {
          ASSERT_EQ(part[i], whole[first + i]) << "op " << first + i;
        }
      }
    }
  }

  if (arch != MultiplierArch::kArray) {
    // The premise: some Tbuf is disabled on the last op before the ranges
    // at 300 and 937, which begin inside a tap, and on their first, so its
    // keeper holds across the start.
    for (const std::size_t first : {300, 937}) {
      const auto before = disabled_tbufs(m, fir, first);
      const auto after = disabled_tbufs(m, fir, first + 1);
      EXPECT_TRUE(std::ranges::any_of(before, [&](GateId g) {
        return std::ranges::find(after, g) != after.end();
      })) << first;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchWidthSweep, TraceRangeTest,
    ::testing::Combine(::testing::Values(MultiplierArch::kArray,
                                         MultiplierArch::kColumnBypass,
                                         MultiplierArch::kRowBypass),
                       ::testing::Values(8, 16, 32)),
    [](const ::testing::TestParamInfo<ArchWidth>& info) {
      std::string name = arch_name(std::get<0>(info.param));
      name += "_w";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

TEST(TraceApiTest, RangePastOpZeroNeedsTheFaultFreeBatchKernel) {
  const MultiplierNetlist m = build_column_bypass_multiplier(4);
  const TechLibrary& t = default_tech_library();
  Rng rng(7);
  const auto pats = uniform_patterns(rng, 4, 100);
  std::vector<OpTrace> out(10);
  EXPECT_THROW(compute_op_trace_range(m, t, pats, 95, out),
               std::invalid_argument);  // past the end
  EXPECT_THROW(compute_op_trace_range(
                   m, t, pats, 64, out,
                   TraceOptions{.kernel = SimKernel::kSparse}),
               std::invalid_argument);
  const FaultOverlay overlay(m.netlist.num_gates());
  EXPECT_THROW(compute_op_trace_range(
                   m, t, pats, 64, out,
                   TraceOptions{.faults = &overlay,
                                .kernel = SimKernel::kBatch}),
               std::invalid_argument);
  // From op 0 every kernel and overlay runs, as compute_op_trace does.
  compute_op_trace_range(m, t, pats, 0, out,
                         TraceOptions{.kernel = SimKernel::kSparse});
  EXPECT_EQ(out[9], compute_op_trace(m, t, pats)[9]);
}

}  // namespace
}  // namespace agingsim
