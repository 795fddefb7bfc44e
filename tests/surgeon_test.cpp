// Unit tests for the NetlistSurgeon repair primitives: insert_buffer (mid-
// graph, renumbering) and insert_output_buffer (append-only). The contract
// under test is the one the hold-repair pass relies on: applied to a valid
// netlist they yield a valid netlist — structural lint family clean — with
// the identical logic function, and the timed path through the edited fanin
// grows by exactly the buffer-chain delay.

#include "src/netlist/surgeon.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/lint/engine.hpp"
#include "src/lint/repair.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/sim/sta.hpp"

namespace agingsim {
namespace {

/// Full adder: two outputs, an internal net (s1) with two consumers.
struct FullAdder {
  NetlistBuilder nb;
  NetId a, b, cin, s1, sum, c1, c2, carry;
  FullAdder() {
    a = nb.input("a");
    b = nb.input("b");
    cin = nb.input("cin");
    s1 = nb.xor2(a, b);
    sum = nb.xor2(s1, cin);
    c1 = nb.and2(a, b);
    c2 = nb.and2(s1, cin);
    carry = nb.or2(c1, c2);
    nb.netlist().mark_output(sum, "sum");
    nb.netlist().mark_output(carry, "carry");
  }
  Netlist& netlist() { return nb.netlist(); }
};

std::size_t structural_errors(const Netlist& nl) {
  lint::LintContext ctx;
  ctx.netlist = &nl;
  const lint::LintEngine engine;
  std::size_t n = 0;
  for (const lint::Diagnostic& d : engine.run(ctx).diagnostics) {
    if (d.severity == lint::Severity::kError) ++n;
  }
  return n;
}

TEST(SurgeonInsertBufferTest, RenumbersAndStaysStructurallyClean) {
  FullAdder fa;
  const Netlist original = fa.netlist();
  ASSERT_EQ(structural_errors(original), 0u);

  // s1 -> c2's AND gate: the sink is gate 3 (xor s1, xor sum, and c1,
  // and c2, or carry). Find it through the driver table instead of
  // hardcoding: c2's driver reads s1.
  const auto sink = static_cast<GateId>(fa.netlist().driver_of(fa.c2));
  const NetId tail = NetlistSurgeon(fa.netlist()).insert_buffer(fa.s1, sink);

  EXPECT_EQ(fa.netlist().num_gates(), original.num_gates() + 1);
  EXPECT_EQ(fa.netlist().num_nets(), original.num_nets() + 1);
  fa.netlist().validate();
  EXPECT_EQ(structural_errors(fa.netlist()), 0u);

  // The buffer output feeds the (renumbered) sink; the *other* consumer of
  // s1 (the sum XOR) still reads s1 directly.
  const auto moved_sink = static_cast<GateId>(sink + 1);
  bool sink_reads_tail = false;
  for (const NetId in : fa.netlist().gate_inputs(moved_sink)) {
    sink_reads_tail |= in == tail;
    EXPECT_NE(in, fa.s1);
  }
  EXPECT_TRUE(sink_reads_tail);

  const lint::EquivalenceSummary eq = lint::check_logic_equivalence(
      original, fa.netlist(), default_tech_library(), 128, 0xD1FFu);
  EXPECT_TRUE(eq.ok()) << eq.mismatches << " mismatching lanes";
}

TEST(SurgeonInsertBufferTest, ChainLengthensThePathByExactlyItsDelay) {
  FullAdder fa;
  const TechLibrary& t = default_tech_library();
  const CornerTiming before = StaEngine(fa.netlist(), t).run_corner({});
  const double carry_before = before.max_arrival_ps[fa.carry];
  const double dx = t.delay(CellKind::kXor2);
  const double da = t.delay(CellKind::kAnd2);
  const double dor = t.delay(CellKind::kOr2);
  ASSERT_DOUBLE_EQ(carry_before, dx + da + dor);

  // Three buffers on the critical edge s1 -> c2.
  const auto sink = static_cast<GateId>(fa.netlist().driver_of(fa.c2));
  NetlistSurgeon(fa.netlist()).insert_buffer(fa.s1, sink, 3);
  const CornerTiming after = StaEngine(fa.netlist(), t).run_corner({});
  // carry was renumbered by the insertion; the output table tracked it.
  const NetId carry_now = fa.netlist().output_nets()[1];
  EXPECT_DOUBLE_EQ(after.max_arrival_ps[carry_now],
                   carry_before + 3.0 * t.delay(CellKind::kBuf));
}

TEST(SurgeonInsertBufferTest, RejectsBadArguments) {
  FullAdder fa;
  NetlistSurgeon surgeon(fa.netlist());
  const auto sink = static_cast<GateId>(fa.netlist().driver_of(fa.c2));
  EXPECT_THROW(surgeon.insert_buffer(fa.s1, sink, 0), std::invalid_argument);
  EXPECT_THROW(surgeon.insert_buffer(fa.s1, sink, -2), std::invalid_argument);
  // The carry OR gate does not read s1.
  const auto or_gate = static_cast<GateId>(fa.netlist().driver_of(fa.carry));
  EXPECT_THROW(surgeon.insert_buffer(fa.s1, or_gate), std::invalid_argument);
  EXPECT_THROW(
      surgeon.insert_buffer(static_cast<NetId>(fa.netlist().num_nets()), sink),
      std::invalid_argument);
  EXPECT_THROW(
      surgeon.insert_buffer(fa.s1,
                            static_cast<GateId>(fa.netlist().num_gates())),
      std::invalid_argument);
  // Nothing above may have mutated the netlist.
  fa.netlist().validate();
  EXPECT_EQ(fa.netlist().num_gates(), 5u);
}

TEST(SurgeonInsertOutputBufferTest, AppendsWithoutRenumbering) {
  FullAdder fa;
  const Netlist original = fa.netlist();
  const TechLibrary& t = default_tech_library();
  const CornerTiming before = StaEngine(original, t).run_corner({});

  const NetId new_out = NetlistSurgeon(fa.netlist()).insert_output_buffer(0, 2);
  EXPECT_EQ(fa.netlist().num_gates(), original.num_gates() + 2);
  // Existing ids unchanged: every original gate is byte-identical.
  for (GateId g = 0; g < original.num_gates(); ++g) {
    EXPECT_EQ(fa.netlist().gate(g).out, original.gate(g).out);
  }
  EXPECT_EQ(fa.netlist().output_nets()[0], new_out);
  EXPECT_EQ(fa.netlist().output_nets()[1], fa.carry);
  fa.netlist().validate();
  EXPECT_EQ(structural_errors(fa.netlist()), 0u);

  const CornerTiming after = StaEngine(fa.netlist(), t).run_corner({});
  EXPECT_DOUBLE_EQ(
      after.max_arrival_ps[new_out],
      before.max_arrival_ps[fa.sum] + 2.0 * t.delay(CellKind::kBuf));

  const lint::EquivalenceSummary eq = lint::check_logic_equivalence(
      original, fa.netlist(), t, 128, 0xD1FFu);
  EXPECT_TRUE(eq.ok());
}

TEST(SurgeonInsertOutputBufferTest, RejectsBadArguments) {
  FullAdder fa;
  NetlistSurgeon surgeon(fa.netlist());
  EXPECT_THROW(surgeon.insert_output_buffer(0, 0), std::invalid_argument);
  EXPECT_THROW(surgeon.insert_output_buffer(2), std::invalid_argument);
  // Dangling-output corruption is detected, not followed.
  surgeon.set_output_net(0, kInvalidNet);
  EXPECT_THROW(surgeon.insert_output_buffer(0), std::invalid_argument);
}

// Repair-primitive guarantee at scale: a stock multiplier stays fully lint
// clean (structural family) and logic-equivalent after a spread of mid-graph
// and endpoint insertions, including on a bypass-multiplexed architecture
// where tri-state keeper structures make pin aliasing delicate.
TEST(SurgeonInsertBufferTest, StockMultiplierSurvivesScatteredInsertions) {
  for (const MultiplierArch arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass}) {
    MultiplierNetlist mult = build_multiplier(arch, 4);
    const Netlist original = mult.netlist;
    // One mid-graph insertion per quarter of the gate range, on each gate's
    // first input pin, plus one endpoint chain.
    for (int q = 0; q < 4; ++q) {
      const auto g = static_cast<GateId>(
          (mult.netlist.num_gates() - 1) * (q + 1) / 4);
      if (mult.netlist.gate(g).in_count == 0) continue;
      const NetId in = mult.netlist.gate_inputs(g)[0];
      NetlistSurgeon(mult.netlist).insert_buffer(in, g);
    }
    NetlistSurgeon(mult.netlist).insert_output_buffer(0, 3);
    mult.netlist.validate();
    EXPECT_EQ(structural_errors(mult.netlist), 0u) << arch_name(arch);
    const lint::EquivalenceSummary eq = lint::check_logic_equivalence(
        original, mult.netlist, default_tech_library(), 192, 0xBEEFu);
    EXPECT_TRUE(eq.ok()) << arch_name(arch) << ": " << eq.mismatches
                         << " mismatching lanes";
  }
}

}  // namespace
}  // namespace agingsim
