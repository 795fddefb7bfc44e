#include "src/core/vl_multiplier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/workload/patterns.hpp"

namespace agingsim {
namespace {

// Shared expensive state: an 8x8 column-bypassing multiplier, a fresh trace
// and a 7-year-aged trace over the same operand stream.
class VlSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mult_ = new MultiplierNetlist(build_column_bypass_multiplier(8));
    tech_ = new TechLibrary(default_tech_library());
    Rng rng(2024);
    patterns_ = new std::vector<OperandPattern>(
        uniform_patterns(rng, 8, 3000));
    fresh_trace_ = new std::vector<OpTrace>(
        compute_op_trace(*mult_, *tech_, *patterns_));
    scenario_ = new AgingScenario(mult_->netlist, *tech_,
                                  BtiModel::calibrated(*tech_), 7, 500);
    aged_scales_ = new std::vector<double>(scenario_->delay_scales_at(7.0));
    aged_trace_ = new std::vector<OpTrace>(
        compute_op_trace(*mult_, *tech_, *patterns_,
                         TraceOptions{.gate_delay_scale = *aged_scales_}));
    crit_ = critical_path_ps(*mult_, *tech_);
    aged_crit_ = critical_path_ps(*mult_, *tech_, *aged_scales_);
  }
  static void TearDownTestSuite() {
    delete mult_;
    delete tech_;
    delete patterns_;
    delete fresh_trace_;
    delete scenario_;
    delete aged_scales_;
    delete aged_trace_;
    mult_ = nullptr;
  }

  static VlSystemConfig config(double period, int skip, bool adaptive) {
    VlSystemConfig c;
    c.period_ps = period;
    c.ahl.width = 8;
    c.ahl.skip = skip;
    c.ahl.adaptive = adaptive;
    return c;
  }

  static MultiplierNetlist* mult_;
  static TechLibrary* tech_;
  static std::vector<OperandPattern>* patterns_;
  static std::vector<OpTrace>* fresh_trace_;
  static AgingScenario* scenario_;
  static std::vector<double>* aged_scales_;
  static std::vector<OpTrace>* aged_trace_;
  static double crit_;
  static double aged_crit_;
};

MultiplierNetlist* VlSystemTest::mult_ = nullptr;
TechLibrary* VlSystemTest::tech_ = nullptr;
std::vector<OperandPattern>* VlSystemTest::patterns_ = nullptr;
std::vector<OpTrace>* VlSystemTest::fresh_trace_ = nullptr;
AgingScenario* VlSystemTest::scenario_ = nullptr;
std::vector<double>* VlSystemTest::aged_scales_ = nullptr;
std::vector<OpTrace>* VlSystemTest::aged_trace_ = nullptr;
double VlSystemTest::crit_ = 0.0;
double VlSystemTest::aged_crit_ = 0.0;

TEST_F(VlSystemTest, TraceIsWellFormed) {
  ASSERT_EQ(fresh_trace_->size(), patterns_->size());
  for (const OpTrace& op : *fresh_trace_) {
    EXPECT_LE(op.delay_ps, crit_ + 1e-9);
    EXPECT_GE(op.delay_ps, 0.0);
    EXPECT_GE(op.switched_cap_ff, 0.0);
    EXPECT_EQ(op.product, reference_multiply(op.a, op.b, 8));
  }
}

TEST_F(VlSystemTest, AgedTraceIsSlower) {
  double fresh_sum = 0.0, aged_sum = 0.0;
  for (std::size_t i = 0; i < fresh_trace_->size(); ++i) {
    fresh_sum += (*fresh_trace_)[i].delay_ps;
    aged_sum += (*aged_trace_)[i].delay_ps;
  }
  EXPECT_GT(aged_sum, fresh_sum);
  EXPECT_GT(aged_crit_, crit_);
}

TEST_F(VlSystemTest, NoErrorsAtGenerousPeriod) {
  VariableLatencySystem sys(*mult_, *tech_, config(crit_ + 1.0, 4, true));
  const RunStats s = sys.run(*fresh_trace_);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.undetected, 0u);
  EXPECT_FALSE(s.switched_to_second_block);
  // Cycle accounting: every op is 1 or 2 cycles exactly.
  EXPECT_EQ(s.total_cycles, s.one_cycle_ops + 2 * s.two_cycle_ops);
  EXPECT_EQ(s.ops, s.one_cycle_ops + s.two_cycle_ops);
  EXPECT_NEAR(s.one_cycle_ratio, expected_one_cycle_ratio(8, 4), 0.03);
}

TEST_F(VlSystemTest, SkipZeroMakesEverythingOneCycle) {
  VariableLatencySystem sys(*mult_, *tech_, config(crit_ + 1.0, 0, true));
  const RunStats s = sys.run(*fresh_trace_);
  EXPECT_EQ(s.two_cycle_ops, 0u);
  EXPECT_DOUBLE_EQ(s.avg_cycles, 1.0);
  EXPECT_DOUBLE_EQ(s.avg_latency_ps, crit_ + 1.0);
}

TEST_F(VlSystemTest, SkipAboveWidthMakesEverythingTwoCycles) {
  VariableLatencySystem sys(*mult_, *tech_,
                            config(0.55 * crit_, /*skip=*/9, true));
  const RunStats s = sys.run(*fresh_trace_);
  EXPECT_EQ(s.one_cycle_ops, 0u);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.undetected, 0u);  // 2T > crit
  EXPECT_DOUBLE_EQ(s.avg_cycles, 2.0);
}

TEST_F(VlSystemTest, TightPeriodProducesErrorsAndPenalties) {
  VariableLatencySystem sys(*mult_, *tech_, config(0.55 * crit_, 3, false));
  const RunStats s = sys.run(*fresh_trace_);
  EXPECT_GT(s.errors, 0u);
  EXPECT_EQ(s.undetected, 0u);  // period >= crit/2 keeps Razor sound
  EXPECT_EQ(s.total_cycles,
            s.one_cycle_ops + 2 * s.two_cycle_ops + 3 * s.errors);
  EXPECT_GT(s.errors_per_10k_ops, 0.0);
}

TEST_F(VlSystemTest, ErrorsShrinkAsPeriodGrows) {
  std::uint64_t prev_errors = ~std::uint64_t{0};
  for (double frac : {0.55, 0.7, 0.85, 1.0}) {
    VariableLatencySystem sys(*mult_, *tech_, config(frac * crit_, 3, false));
    const RunStats s = sys.run(*fresh_trace_);
    EXPECT_LE(s.errors, prev_errors) << "period fraction " << frac;
    prev_errors = s.errors;
  }
  EXPECT_EQ(prev_errors, 0u);
}

TEST_F(VlSystemTest, RazorSoundnessHoldsDownToHalfCriticalPath) {
  for (double frac : {0.5, 0.6, 0.75}) {
    VariableLatencySystem sys(*mult_, *tech_,
                              config(frac * aged_crit_, 3, true));
    EXPECT_EQ(sys.run(*aged_trace_).undetected, 0u) << frac;
  }
}

TEST_F(VlSystemTest, AdaptiveSwitchesUnderAgingAndReducesErrors) {
  // Pick a period low enough that a sizeable fraction of the aged
  // Skip-3-one-cycle patterns violate: the 70th percentile of their aged
  // delays. The traditional design then errors on ~30% of one-cycle ops —
  // well past the indicator's 10% threshold — and the AHL must switch.
  const JudgingBlock jb(8, 3);
  std::vector<double> one_cycle_delays;
  for (const OpTrace& op : *aged_trace_) {
    if (jb.one_cycle(op.a)) one_cycle_delays.push_back(op.delay_ps);
  }
  ASSERT_GT(one_cycle_delays.size(), 100u);
  std::sort(one_cycle_delays.begin(), one_cycle_delays.end());
  double period = one_cycle_delays[one_cycle_delays.size() * 7 / 10];
  // Razor stays sound as long as every op fits in two cycles; random
  // patterns settle far below the STA critical path, so this bound is much
  // looser than crit/2.
  double max_delay = 0.0;
  for (const OpTrace& op : *aged_trace_) {
    max_delay = std::max(max_delay, op.delay_ps);
  }
  period = std::max(period, 0.5 * max_delay);

  VariableLatencySystem traditional(*mult_, *tech_,
                                    config(period, 3, false));
  VariableLatencySystem adaptive(*mult_, *tech_, config(period, 3, true));
  const RunStats st = traditional.run(*aged_trace_);
  const RunStats sa = adaptive.run(*aged_trace_);
  ASSERT_GT(st.errors_per_10k_ops, 1000.0)
      << "test premise: the traditional design must be erroring heavily";
  EXPECT_TRUE(sa.switched_to_second_block);
  EXPECT_LT(sa.errors, st.errors);
  // Converting the error-prone boundary patterns to two-cycle ops must not
  // cost more than the re-execution penalty it avoids.
  EXPECT_LE(sa.avg_latency_ps, st.avg_latency_ps * 1.02);
}

TEST_F(VlSystemTest, EnergyAccountingIsConsistent) {
  VariableLatencySystem sys(*mult_, *tech_, config(crit_, 4, true));
  const RunStats s = sys.run(*fresh_trace_, /*mean_dvth_v=*/0.01);
  EXPECT_GT(s.comb_energy_fj, 0.0);
  EXPECT_GT(s.register_energy_fj, 0.0);
  EXPECT_GT(s.ahl_energy_fj, 0.0);
  EXPECT_GT(s.leakage_energy_fj, 0.0);
  EXPECT_NEAR(s.total_energy_fj,
              s.comb_energy_fj + s.register_energy_fj + s.ahl_energy_fj +
                  s.leakage_energy_fj,
              1e-6);
  const double time_ps = static_cast<double>(s.total_cycles) * s.period_ps;
  EXPECT_NEAR(s.avg_power_mw, s.total_energy_fj / time_ps, 1e-12);
  EXPECT_NEAR(s.edp_mw_ns2,
              s.avg_power_mw * (s.avg_latency_ps * 1e-3) *
                  (s.avg_latency_ps * 1e-3),
              1e-12);
}

TEST_F(VlSystemTest, LeakageFallsWithVthDrift) {
  VariableLatencySystem sys(*mult_, *tech_, config(crit_, 4, true));
  const RunStats fresh = sys.run(*fresh_trace_, 0.0);
  const RunStats drifted = sys.run(*fresh_trace_, 0.05);
  EXPECT_GT(fresh.leakage_energy_fj, drifted.leakage_energy_fj);
}

TEST_F(VlSystemTest, FixedLatencyBaselineSemantics) {
  FixedLatencySystem fixed(*mult_, *tech_);
  const RunStats s = fixed.run(*fresh_trace_, crit_);
  EXPECT_EQ(s.ops, fresh_trace_->size());
  EXPECT_EQ(s.total_cycles, s.ops);
  EXPECT_DOUBLE_EQ(s.avg_latency_ps, crit_);
  EXPECT_EQ(s.undetected, 0u);
  // Clocking it faster than a pattern's delay is flagged.
  const RunStats broken = fixed.run(*fresh_trace_, 0.3 * crit_);
  EXPECT_GT(broken.undetected, 0u);
}

TEST_F(VlSystemTest, VariableLatencyBeatsFixedAtGoodPeriod) {
  // The headline claim, in miniature: a well-chosen period gives the VL
  // design a lower average latency than the fixed-latency bypassing design.
  VariableLatencySystem sys(*mult_, *tech_, config(0.7 * crit_, 3, true));
  const RunStats vl = sys.run(*fresh_trace_);
  FixedLatencySystem fixed(*mult_, *tech_);
  const RunStats fl = fixed.run(*fresh_trace_, crit_);
  EXPECT_LT(vl.avg_latency_ps, fl.avg_latency_ps);
}

TEST_F(VlSystemTest, ConfigValidation) {
  EXPECT_THROW(VariableLatencySystem(*mult_, *tech_, config(0.0, 4, true)),
               std::invalid_argument);
  VlSystemConfig bad = config(100.0, 4, true);
  bad.ahl.width = 16;  // mismatched width
  EXPECT_THROW(VariableLatencySystem(*mult_, *tech_, bad),
               std::invalid_argument);
  FixedLatencySystem fixed(*mult_, *tech_);
  EXPECT_THROW(fixed.run(*fresh_trace_, -1.0), std::invalid_argument);
}

TEST_F(VlSystemTest, RowBypassJudgesOnMultiplicator) {
  // Build a tiny row-bypass system and check the judging operand is b:
  // patterns with dense a / sparse b must be one-cycle, and vice versa.
  const MultiplierNetlist rb = build_row_bypass_multiplier(8);
  VlSystemConfig c = config(critical_path_ps(rb, *tech_) + 1.0, 4, true);
  VariableLatencySystem sys(rb, *tech_, c);
  std::vector<OperandPattern> pats = {{0xFF, 0x00}, {0x00, 0xFF}};
  const auto trace = compute_op_trace(rb, *tech_, pats);
  const RunStats s = sys.run(trace);
  EXPECT_EQ(s.one_cycle_ops, 1u);  // only the sparse-b pattern
  EXPECT_EQ(s.two_cycle_ops, 1u);
}

}  // namespace
}  // namespace agingsim
