#include "src/sim/timing_sim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/workload/patterns.hpp"

namespace agingsim {
namespace {

std::vector<Logic> bits(std::initializer_list<int> values) {
  std::vector<Logic> out;
  for (int v : values) out.push_back(logic_from_bool(v != 0));
  return out;
}

TEST(TimingSimTest, StableInputsProduceNoEvents) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId y = nb.and2(a, b);
  nb.netlist().mark_output(y, "y");
  TimingSim sim(nb.netlist(), default_tech_library());
  sim.step(bits({1, 1}));
  const StepResult r = sim.step(bits({1, 1}));  // identical pattern
  EXPECT_EQ(r.toggles, 0u);
  EXPECT_DOUBLE_EQ(r.output_settle_ps, 0.0);
  EXPECT_DOUBLE_EQ(r.switched_cap_ff, 0.0);
}

TEST(TimingSimTest, ControllingZeroSettlesEarly) {
  // slow = INV^5(a); y = AND(slow, b). Falling b kills the AND immediately;
  // the slow path is irrelevant for that transition.
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  NetId slow = a;
  for (int i = 0; i < 5; ++i) slow = nb.inv(slow);
  const NetId y = nb.and2(slow, b);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  TimingSim sim(nb.netlist(), t);

  sim.step(bits({0, 1}));  // slow=INV^5(0)=1, y=1
  ASSERT_EQ(sim.value(y), Logic::kOne);
  // a rises (slow will fall late) and b falls (kills output now).
  const StepResult r = sim.step(bits({1, 0}));
  EXPECT_EQ(sim.value(y), Logic::kZero);
  EXPECT_DOUBLE_EQ(r.output_settle_ps, t.delay(CellKind::kAnd2));
  // But internal nets settle later than the output.
  EXPECT_GT(r.settle_ps, r.output_settle_ps);
}

TEST(TimingSimTest, NonControllingSettleWaitsForSlowestChangedInput) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId slow = nb.inv(nb.inv(a));
  const NetId y = nb.and2(slow, b);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  TimingSim sim(nb.netlist(), t);
  sim.step(bits({0, 1}));  // slow=0 => y=0
  const StepResult r = sim.step(bits({1, 1}));  // slow rises late, y -> 1
  EXPECT_EQ(sim.value(y), Logic::kOne);
  EXPECT_DOUBLE_EQ(r.output_settle_ps,
                   2.0 * t.delay(CellKind::kInv) + t.delay(CellKind::kAnd2));
}

TEST(TimingSimTest, TbufHoldsValueAndSuppressesActivity) {
  NetlistBuilder nb;
  const NetId d = nb.input("d");
  const NetId en = nb.input("en");
  const NetId y = nb.tbuf(d, en);
  nb.netlist().mark_output(y, "y");
  TimingSim sim(nb.netlist(), default_tech_library());
  sim.step(bits({1, 1}));
  EXPECT_EQ(sim.value(y), Logic::kOne);
  // Disable, then wiggle d: output holds 1, no gate toggles.
  sim.step(bits({1, 0}));
  EXPECT_EQ(sim.value(y), Logic::kOne);
  const StepResult r = sim.step(bits({0, 0}));
  EXPECT_EQ(sim.value(y), Logic::kOne);
  EXPECT_EQ(r.toggles, 0u);
  // Re-enable: output follows d again.
  sim.step(bits({0, 1}));
  EXPECT_EQ(sim.value(y), Logic::kZero);
}

TEST(TimingSimTest, MuxPropagatesOnlySelectedDataPath) {
  NetlistBuilder nb;
  const NetId d0 = nb.input("d0");
  const NetId d1 = nb.input("d1");
  const NetId sel = nb.input("sel");
  const NetId slow1 = nb.inv(nb.inv(d1));  // d1 path is slow
  const NetId y = nb.mux2(d0, slow1, sel);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  TimingSim sim(nb.netlist(), t);
  sim.step(bits({0, 0, 0}));  // y = d0 = 0
  // Toggle only d0 while selected: arrival is just the MUX delay.
  const StepResult r = sim.step(bits({1, 0, 0}));
  EXPECT_EQ(sim.value(y), Logic::kOne);
  EXPECT_DOUBLE_EQ(r.output_settle_ps, t.delay(CellKind::kMux2));
  // Toggling the unselected slow path leaves the output silent.
  const StepResult r2 = sim.step(bits({1, 1, 0}));
  EXPECT_DOUBLE_EQ(r2.output_settle_ps, 0.0);
}

TEST(TimingSimTest, OutputBitsPacksLsbFirst) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  nb.netlist().mark_output(a, "p[0]");
  nb.netlist().mark_output(b, "p[1]");
  TimingSim sim(nb.netlist(), default_tech_library());
  sim.step(bits({1, 0}));
  EXPECT_EQ(sim.output_bits(), 0b01u);
  sim.step(bits({0, 1}));
  EXPECT_EQ(sim.output_bits(), 0b10u);
}

TEST(TimingSimTest, OutputBitsRejectsUnknownOutputs) {
  NetlistBuilder nb;
  const NetId d = nb.input("d");
  const NetId en = nb.input("en");
  nb.netlist().mark_output(nb.tbuf(d, en), "y");
  TimingSim sim(nb.netlist(), default_tech_library());
  // Disabled from power-up: the keeper net has never been driven.
  sim.step(bits({1, 0}));
  EXPECT_THROW(sim.output_bits(), std::logic_error);
}

TEST(TimingSimTest, RejectsWrongInputCount) {
  NetlistBuilder nb;
  nb.input("a");
  TimingSim sim(nb.netlist(), default_tech_library());
  EXPECT_THROW(sim.step(bits({1, 0})), std::invalid_argument);
}

TEST(TimingSimTest, LoadBusRejectsNegativeFirstInput) {
  // first_input + width stays within the inputs, so only the sign of
  // first_input shows the bus starts before input 0.
  const MultiplierNetlist m = build_array_multiplier(4);
  std::vector<Logic> buffer(m.netlist.num_inputs(), Logic::kZero);
  EXPECT_THROW(load_bus(buffer, 3, 2, -1), std::invalid_argument);
  EXPECT_THROW(load_bus(buffer, 3, m.width, -m.width),
               std::invalid_argument);
  EXPECT_EQ(buffer, std::vector<Logic>(buffer.size(), Logic::kZero));
}

TEST(TimingSimTest, RejectsBadAgingOverlay) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  nb.netlist().mark_output(nb.inv(a), "y");
  const std::vector<double> wrong = {1.0, 2.0, 3.0};
  EXPECT_THROW(TimingSim(nb.netlist(), default_tech_library(), wrong),
               std::invalid_argument);
}

// Property: per-pattern sensitized settle time never exceeds the STA bound,
// on a real multiplier with random patterns.
TEST(TimingSimTest, SensitizedDelayBoundedBySta) {
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const TechLibrary& t = default_tech_library();
  const double sta = critical_path_ps(m, t);
  MultiplierSim sim(m, t);
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const StepResult r = sim.apply(rng.next_bits(8), rng.next_bits(8));
    EXPECT_LE(r.output_settle_ps, sta + 1e-9);
  }
}

// Property: aging monotonicity — uniformly slower gates never settle sooner.
TEST(TimingSimTest, AgedCircuitIsSlower) {
  const MultiplierNetlist m = build_array_multiplier(8);
  const TechLibrary& t = default_tech_library();
  MultiplierSim fresh(m, t);
  const std::vector<double> scales(m.netlist.num_gates(), 1.2);
  MultiplierSim aged(m, t, scales);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_bits(8), b = rng.next_bits(8);
    const StepResult rf = fresh.apply(a, b);
    const StepResult ra = aged.apply(a, b);
    EXPECT_NEAR(ra.output_settle_ps, 1.2 * rf.output_settle_ps, 1e-6);
  }
}

}  // namespace
}  // namespace agingsim
