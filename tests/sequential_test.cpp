#include "src/sim/sequential.hpp"

#include <gtest/gtest.h>

#include <array>

#include "src/netlist/builder.hpp"

namespace agingsim {
namespace {

TEST(SequentialTest, ToggleFlipFlopDividesByTwo) {
  // D = !Q: the canonical divide-by-two.
  NetlistBuilder nb;
  const NetId q = nb.input("q");
  const NetId d = nb.inv(q);
  nb.netlist().mark_output(d, "d");
  SequentialSim sim(nb.netlist(), default_tech_library(),
                    {{RegisterBinding{d, 0, kInvalidNet, Logic::kZero}}});
  Logic expect = Logic::kZero;
  for (int cycle = 0; cycle < 8; ++cycle) {
    EXPECT_EQ(sim.q(0), expect) << "cycle " << cycle;
    sim.clock();
    expect = logic_not(expect);
  }
}

TEST(SequentialTest, TwoBitCounter) {
  // q1q0 counts 00,01,10,11: d0 = !q0, d1 = q1 ^ q0.
  NetlistBuilder nb;
  const NetId q0 = nb.input("q0");
  const NetId q1 = nb.input("q1");
  const NetId d0 = nb.inv(q0);
  const NetId d1 = nb.xor2(q1, q0);
  nb.netlist().mark_output(d0, "d0");
  nb.netlist().mark_output(d1, "d1");
  SequentialSim sim(nb.netlist(), default_tech_library(),
                    {RegisterBinding{d0, 0}, RegisterBinding{d1, 1}});
  for (int cycle = 0; cycle < 12; ++cycle) {
    const int count = (sim.q(1) == Logic::kOne ? 2 : 0) +
                      (sim.q(0) == Logic::kOne ? 1 : 0);
    EXPECT_EQ(count, cycle % 4) << "cycle " << cycle;
    sim.clock();
  }
}

TEST(SequentialTest, ShiftRegisterFollowsExternalInput) {
  NetlistBuilder nb;
  const NetId din = nb.input("din");
  const NetId q0 = nb.input("q0");
  const NetId q1 = nb.input("q1");
  nb.netlist().mark_output(nb.buf(din), "d0");
  nb.netlist().mark_output(nb.buf(q0), "d1");
  nb.netlist().mark_output(q1, "out");
  const NetId d0_net = nb.netlist().output_nets()[0];
  const NetId d1_net = nb.netlist().output_nets()[1];
  SequentialSim sim(nb.netlist(), default_tech_library(),
                    {RegisterBinding{d0_net, 1}, RegisterBinding{d1_net, 2}});
  const bool stream[] = {true, false, true, true, false, false, true};
  bool hist[16] = {};
  for (int cycle = 0; cycle < 7; ++cycle) {
    sim.set_input(0, logic_from_bool(stream[cycle]));
    sim.clock();
    hist[cycle] = stream[cycle];
    if (cycle >= 1) {
      EXPECT_EQ(sim.q(1), logic_from_bool(hist[cycle - 1]))
          << "cycle " << cycle;
    }
  }
}

TEST(SequentialTest, ClockEnableHoldsState) {
  // Register loads din only when en = 1.
  NetlistBuilder nb;
  const NetId din = nb.input("din");
  const NetId en = nb.input("en");
  const NetId q = nb.input("q");
  nb.netlist().mark_output(nb.buf(din), "d");
  nb.netlist().mark_output(q, "out");
  const NetId d_net = nb.netlist().output_nets()[0];
  SequentialSim sim(nb.netlist(), default_tech_library(),
                    {RegisterBinding{d_net, 2, en, Logic::kZero}});
  sim.set_input(0, Logic::kOne);   // din = 1
  sim.set_input(1, Logic::kZero);  // en = 0: hold
  sim.clock();
  EXPECT_EQ(sim.q(0), Logic::kZero);
  sim.set_input(1, Logic::kOne);  // en = 1: load
  sim.clock();
  EXPECT_EQ(sim.q(0), Logic::kOne);
  sim.set_input(0, Logic::kZero);
  sim.set_input(1, Logic::kZero);  // hold again
  sim.clock();
  EXPECT_EQ(sim.q(0), Logic::kOne);
}

TEST(SequentialTest, BindingValidation) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId y = nb.inv(a);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  EXPECT_THROW(SequentialSim(nb.netlist(), t,
                             {RegisterBinding{NetId{99}, 0}}),
               std::invalid_argument);
  EXPECT_THROW(SequentialSim(nb.netlist(), t, {RegisterBinding{y, 7}}),
               std::invalid_argument);
  EXPECT_THROW(SequentialSim(nb.netlist(), t,
                             {RegisterBinding{y, 0}, RegisterBinding{y, 0}}),
               std::invalid_argument);
  SequentialSim ok(nb.netlist(), t, {RegisterBinding{y, 0}});
  EXPECT_THROW(ok.set_input(0, Logic::kOne), std::invalid_argument);
  EXPECT_THROW(ok.set_input(5, Logic::kOne), std::invalid_argument);
}

TEST(SequentialTest, InstantiateComposesSubcircuits) {
  // A full adder built once, instantiated twice to make a 2-bit adder.
  NetlistBuilder fa_builder;
  const NetId fa_a = fa_builder.input("a");
  const NetId fa_b = fa_builder.input("b");
  const NetId fa_c = fa_builder.input("c");
  const AdderBits fa = fa_builder.full_adder(fa_a, fa_b, fa_c);
  fa_builder.netlist().mark_output(fa.sum, "s");
  fa_builder.netlist().mark_output(fa.carry, "co");

  NetlistBuilder top;
  const auto a = top.input_bus("a", 2);
  const auto b = top.input_bus("b", 2);
  const auto s0 = top.instantiate(fa_builder.netlist(),
                                  std::array{a[0], b[0], top.zero()});
  const auto s1 =
      top.instantiate(fa_builder.netlist(), std::array{a[1], b[1], s0[1]});
  top.netlist().mark_output(s0[0], "s0");
  top.netlist().mark_output(s1[0], "s1");
  top.netlist().mark_output(s1[1], "s2");
  top.netlist().validate();

  TimingSim sim(top.netlist(), default_tech_library());
  std::vector<Logic> pattern(4);
  for (std::uint64_t av = 0; av < 4; ++av) {
    for (std::uint64_t bv = 0; bv < 4; ++bv) {
      load_bus(pattern, av, 2, 0);
      load_bus(pattern, bv, 2, 2);
      sim.step(pattern);
      EXPECT_EQ(sim.output_bits(), av + bv) << av << "+" << bv;
    }
  }
}

}  // namespace
}  // namespace agingsim
