#include "src/core/ahl_netlist.hpp"

#include <gtest/gtest.h>

#include "src/core/judging.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

bool eval_netlist(const JudgingNetlist& jn, TimingSim& sim,
                  std::vector<Logic>& pattern, std::uint64_t operand) {
  load_bus(pattern, operand, jn.width, 0);
  sim.step(pattern);
  return sim.output_bits() & 1;
}

TEST(AhlNetlistTest, ExhaustiveEquivalenceWidth8) {
  // Every skip value, every operand: the gate-level judging block must
  // agree with the behavioural model the system simulator uses.
  for (int skip = 0; skip <= 9; ++skip) {
    const JudgingNetlist jn = build_judging_block_netlist(8, skip);
    const JudgingBlock jb(8, skip);
    TimingSim sim(jn.netlist, default_tech_library());
    std::vector<Logic> pattern(jn.netlist.num_inputs());
    for (std::uint64_t v = 0; v < 256; ++v) {
      ASSERT_EQ(eval_netlist(jn, sim, pattern, v), jb.one_cycle(v))
          << "skip " << skip << " operand " << v;
    }
  }
}

TEST(AhlNetlistTest, RandomizedEquivalenceWide) {
  for (int width : {16, 32}) {
    for (int skip : {width / 2 - 1, width / 2, width / 2 + 1}) {
      const JudgingNetlist jn = build_judging_block_netlist(width, skip);
      const JudgingBlock jb(width, skip);
      TimingSim sim(jn.netlist, default_tech_library());
      std::vector<Logic> pattern(jn.netlist.num_inputs());
      Rng rng(0xE0 + static_cast<std::uint64_t>(width * 100 + skip));
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t v = rng.next_bits(width);
        ASSERT_EQ(eval_netlist(jn, sim, pattern, v), jb.one_cycle(v))
            << width << "/" << skip << " operand " << v;
      }
    }
  }
}

TEST(AhlNetlistTest, BoundaryOperands) {
  const JudgingNetlist jn = build_judging_block_netlist(16, 8);
  TimingSim sim(jn.netlist, default_tech_library());
  std::vector<Logic> pattern(jn.netlist.num_inputs());
  EXPECT_TRUE(eval_netlist(jn, sim, pattern, 0x0000));   // 16 zeros
  EXPECT_TRUE(eval_netlist(jn, sim, pattern, 0x00FF));   // exactly 8
  EXPECT_FALSE(eval_netlist(jn, sim, pattern, 0x01FF));  // 7 zeros
  EXPECT_FALSE(eval_netlist(jn, sim, pattern, 0xFFFF));  // 0 zeros
}

TEST(AhlNetlistTest, DegenerateSkips) {
  const JudgingNetlist always = build_judging_block_netlist(8, 0);
  const JudgingNetlist never = build_judging_block_netlist(8, 9);
  TimingSim sa(always.netlist, default_tech_library());
  TimingSim sn(never.netlist, default_tech_library());
  std::vector<Logic> pa(always.netlist.num_inputs());
  std::vector<Logic> pn(never.netlist.num_inputs());
  for (std::uint64_t v : {0ull, 1ull, 127ull, 255ull}) {
    load_bus(pa, v, 8, 0);
    sa.step(pa);
    EXPECT_EQ(sa.output_bits() & 1, 1u);
    load_bus(pn, v, 8, 0);
    sn.step(pn);
    EXPECT_EQ(sn.output_bits() & 1, 0u);
  }
}

TEST(AhlNetlistTest, AreaScalesWithWidth) {
  const auto a16 = build_judging_block_netlist(16, 8);
  const auto a32 = build_judging_block_netlist(32, 16);
  EXPECT_GT(a32.netlist.transistor_count(), a16.netlist.transistor_count());
  // The judging block is tiny next to the multiplier it serves (the 16x16
  // column-bypassing multiplier is ~18k transistors).
  EXPECT_LT(a16.netlist.transistor_count(), 3000);
}

TEST(AhlNetlistTest, Validation) {
  EXPECT_THROW(build_judging_block_netlist(1, 0), std::invalid_argument);
  EXPECT_THROW(build_judging_block_netlist(33, 5), std::invalid_argument);
  EXPECT_THROW(build_judging_block_netlist(16, -1), std::invalid_argument);
  EXPECT_THROW(build_judging_block_netlist(16, 18), std::invalid_argument);
}

}  // namespace
}  // namespace agingsim
