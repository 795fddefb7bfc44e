// Differential tests of the corner-parallel timing kernel
// (src/sim/corner_sim.cpp) against one scalar TimingSim per lane, each
// built with that lane's delay scales. Every lane's output settle and
// product must be exactly `==` the scalar kernel's, on streams that start
// from the all-X power-up, for 1, 31 and 32 lanes in use, and for an
// every-cell-kind netlist whose Tbuf keeper powers up X, and for lanes
// carrying a delay-outlier overlay on top of their aging table.

#include "src/sim/corner_sim.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/aging/variation.hpp"
#include "src/fault/fault.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/patterns.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

constexpr int kLaneCounts[] = {1, 31, kCornerLanes};

/// kCornerLanes delay tables: all 1.0, or a wide lognormal per gate and
/// lane (sigma 0.2) so that lanes disagree on which input arrives first.
std::vector<std::vector<double>> lane_tables(const Netlist& nl, bool random) {
  std::vector<std::vector<double>> tables;
  for (int l = 0; l < kCornerLanes; ++l) {
    tables.push_back(random ? process_variation_scales(nl, 0.2, 0xC0DE + l)
                            : std::vector<double>(nl.num_gates(), 1.0));
  }
  return tables;
}

/// What one scalar TimingSim per lane settles: settle[lane][op] and the
/// net values after every op (values[lane][op][net]).
struct ScalarRun {
  std::vector<std::vector<double>> settle;
  std::vector<std::vector<std::vector<Logic>>> values;
};

ScalarRun scalar_run(const Netlist& nl,
                     const std::vector<std::vector<double>>& tables,
                     const std::vector<std::vector<Logic>>& stream) {
  ScalarRun run;
  for (const std::vector<double>& table : tables) {
    TimingSim sim(nl, default_tech_library(), table);
    run.settle.emplace_back();
    run.values.emplace_back();
    for (const std::vector<Logic>& inputs : stream) {
      run.settle.back().push_back(sim.step(inputs).output_settle_ps);
      std::vector<Logic> values(nl.num_nets());
      for (NetId n = 0; n < nl.num_nets(); ++n) values[n] = sim.value(n);
      run.values.back().push_back(std::move(values));
    }
  }
  return run;
}

/// Runs `stream` through a CornerTimingSim at every lane count and checks
/// each lane's settle and every net value against its scalar reference.
void expect_matches_scalar(const Netlist& nl,
                           const std::vector<std::vector<Logic>>& stream,
                           const std::string& label) {
  for (const bool random : {false, true}) {
    const auto tables = lane_tables(nl, random);
    const ScalarRun want = scalar_run(nl, tables, stream);
    CornerTimingSim sim(nl, default_tech_library());
    for (const int lanes : kLaneCounts) {
      for (int l = 0; l < lanes; ++l) sim.set_lane_scales(l, tables[l]);
      sim.power_up(lanes);
      for (std::size_t op = 0; op < stream.size(); ++op) {
        const std::span<const double> settle = sim.step(stream[op]);
        const std::string where = label + (random ? " lognormal" : " fresh") +
                                  " lanes " + std::to_string(lanes) +
                                  " op " + std::to_string(op);
        std::vector<Logic> values(nl.num_nets());
        for (NetId n = 0; n < nl.num_nets(); ++n) values[n] = sim.value(n);
        for (int l = 0; l < lanes; ++l) {
          ASSERT_EQ(settle[l], want.settle[l][op]) << where << " lane " << l;
          ASSERT_TRUE(values == want.values[l][op])
              << where << " lane " << l << ": net values differ";
        }
      }
    }
  }
}

using ArchWidth = std::tuple<MultiplierArch, int>;

class CornerSimParam : public ::testing::TestWithParam<ArchWidth> {};

TEST_P(CornerSimParam, EveryLaneMatchesItsScalarTimingSimExactly) {
  const auto [arch, width] = GetParam();
  const MultiplierNetlist m = build_multiplier(arch, width);
  Rng rng(0x5EED + static_cast<std::uint64_t>(width));
  std::vector<OperandPattern> pats =
      uniform_patterns(rng, width, width == 32 ? 24 : 40);
  pats.push_back(pats.back());  // a step where nothing changes settles at 0
  std::vector<std::vector<Logic>> stream;
  for (const OperandPattern& p : pats) {
    std::vector<Logic> inputs(m.netlist.num_inputs(), Logic::kZero);
    for (int i = 0; i < width; ++i) {
      inputs[static_cast<std::size_t>(m.a_first_input + i)] =
          logic_from_bool(((p.a >> i) & 1u) != 0);
      inputs[static_cast<std::size_t>(m.b_first_input + i)] =
          logic_from_bool(((p.b >> i) & 1u) != 0);
    }
    stream.push_back(std::move(inputs));
  }
  const std::string label = std::string(arch_name(arch)) +
                            std::to_string(width);
  expect_matches_scalar(m.netlist, stream, label);

  // Products: the shared values are the golden product after every op.
  CornerTimingSim sim(m.netlist, default_tech_library());
  sim.power_up(kCornerLanes);
  for (std::size_t op = 0; op < stream.size(); ++op) {
    sim.step(stream[op]);
    ASSERT_EQ(sim.output_bits(),
              reference_multiply(pats[op].a, pats[op].b, width))
        << label << " op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchWidthSweep, CornerSimParam,
    ::testing::Combine(::testing::Values(MultiplierArch::kArray,
                                         MultiplierArch::kColumnBypass,
                                         MultiplierArch::kRowBypass),
                       ::testing::Values(4, 8, 16, 32)),
    [](const ::testing::TestParamInfo<ArchWidth>& info) {
      return std::string(arch_name(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CornerSimTest, EveryCellKindThroughKeeperXMatchesScalar) {
  // A Tbuf enabled one pattern in eight powers up X and keeps its value
  // across long disabled runs; every other cell kind reads it, so X
  // propagation and each kind's arrival rule are compared lane by lane.
  NetlistBuilder nb;
  Netlist& nl = nb.netlist();
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId c = nb.input("c");
  const NetId d = nb.input("d");
  const NetId en = nl.add_gate(CellKind::kAnd3, {a, b, c});
  const NetId kept = nl.add_gate(CellKind::kTbuf, {d, en});
  const NetId x_en = nl.add_gate(CellKind::kTbuf, {a, kept});
  const NetId zero = nl.add_gate(CellKind::kTie0, {});
  const NetId one = nl.add_gate(CellKind::kTie1, {});
  const NetId slow = nl.add_gate(CellKind::kXor2, {a, b});
  // Three-input gates whose inputs move independently and arrive at
  // different depths.
  const NetId mid =
      nl.add_gate(CellKind::kBuf, {nl.add_gate(CellKind::kInv, {c})});
  const NetId d2 =
      nl.add_gate(CellKind::kBuf, {nl.add_gate(CellKind::kBuf, {d})});
  const NetId deep = nl.add_gate(CellKind::kInv, {d2});
  const std::vector<NetId> outs = {
      nl.add_gate(CellKind::kBuf, {kept}),
      nl.add_gate(CellKind::kInv, {kept}),
      nl.add_gate(CellKind::kAnd2, {kept, slow}),
      nl.add_gate(CellKind::kNand2, {kept, b}),
      nl.add_gate(CellKind::kOr2, {slow, c}),
      nl.add_gate(CellKind::kNor2, {kept, d}),
      nl.add_gate(CellKind::kXor2, {kept, a}),
      nl.add_gate(CellKind::kXnor2, {slow, b}),
      nl.add_gate(CellKind::kOr3, {kept, zero, slow}),
      nl.add_gate(CellKind::kAnd3, {slow, one, d}),
      nl.add_gate(CellKind::kMux2, {a, slow, kept}),
      nl.add_gate(CellKind::kMux2, {kept, kept, c}),
      nl.add_gate(CellKind::kMux2, {slow, b, c}),
      nl.add_gate(CellKind::kTbuf, {kept, b}),
      nl.add_gate(CellKind::kTbuf, {slow, x_en}),
      nl.add_gate(CellKind::kAnd3, {slow, mid, deep}),
      nl.add_gate(CellKind::kOr3, {deep, slow, mid}),
      a,  // a primary input that is also an output
  };
  for (std::size_t i = 0; i < outs.size(); ++i) {
    nl.mark_output(outs[i], "y" + std::to_string(i));
  }
  Rng rng(20261017);
  std::vector<std::vector<Logic>> stream(300);
  for (auto& inputs : stream) {
    for (int i = 0; i < 4; ++i) {
      inputs.push_back(logic_from_bool((rng.next() & 1) != 0));
    }
  }
  expect_matches_scalar(nl, stream, "cell kinds");
}

TEST(CornerSimTest, DelayOutlierLanesMatchScalarWithTheSameOverlay) {
  // Fault-campaign trial lanes: each lane is an aging table times one
  // trial's delay-outlier factors, and must settle exactly like a scalar
  // TimingSim carrying that aging table and that overlay. Lane 0 has one
  // gate hit by two sites (factors multiply); odd lanes are fresh (an
  // empty scale span); lane 2 has an overlay with nothing on the aging.
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  const Netlist& nl = m.netlist;
  const std::vector<double> aging = process_variation_scales(nl, 0.1, 0xA6E);
  Rng rng(0xFA17);
  std::vector<FaultOverlay> overlays;
  for (int l = 0; l < kCornerLanes; ++l) {
    FaultOverlay overlay(nl.num_gates());
    const auto gate = [&] {
      return static_cast<GateId>(rng.next_below(nl.num_gates()));
    };
    const GateId twice = gate();
    for (const double factor : {3.0, 5.0}) {
      overlay.add({.kind = FaultKind::kDelayOutlier,
                   .gate = l == 0 ? twice : gate(),
                   .delay_factor = factor * (1.0 + 0.25 * l)});
    }
    overlays.push_back(std::move(overlay));
  }
  const auto lane_aging = [&](int l) {
    return l % 2 == 1 ? std::span<const double>() : std::span(aging);
  };
  std::vector<std::vector<Logic>> stream;
  for (const OperandPattern& p : uniform_patterns(rng, 8, 60)) {
    std::vector<Logic> inputs(nl.num_inputs(), Logic::kZero);
    for (int i = 0; i < 8; ++i) {
      inputs[static_cast<std::size_t>(m.a_first_input + i)] =
          logic_from_bool(((p.a >> i) & 1u) != 0);
      inputs[static_cast<std::size_t>(m.b_first_input + i)] =
          logic_from_bool(((p.b >> i) & 1u) != 0);
    }
    stream.push_back(std::move(inputs));
  }

  std::vector<std::vector<double>> want(kCornerLanes);
  for (int l = 0; l < kCornerLanes; ++l) {
    TimingSim scalar(nl, default_tech_library(), lane_aging(l));
    if (l != 3) scalar.set_fault_overlay(&overlays[l]);
    for (const auto& inputs : stream) {
      want[l].push_back(scalar.step(inputs).output_settle_ps);
    }
  }
  ASSERT_GT(overlays[0].delay_factor(overlays[0].faults()[0].gate), 15.0 - 1e-9)
      << "premise: lane 0's two sites share a gate";

  CornerTimingSim sim(nl, default_tech_library());
  for (int l = 0; l < kCornerLanes; ++l) {
    sim.set_lane_scales(l, lane_aging(l), l == 3 ? nullptr : &overlays[l]);
  }
  sim.power_up(kCornerLanes);
  std::size_t slower = 0;
  for (std::size_t op = 0; op < stream.size(); ++op) {
    const std::span<const double> settle = sim.step(stream[op]);
    for (int l = 0; l < kCornerLanes; ++l) {
      ASSERT_EQ(settle[l], want[l][op]) << "lane " << l << " op " << op;
    }
    // Lanes 1 and 3 are both fresh; only lane 1 carries outliers.
    slower += settle[1] > settle[3] ? 1u : 0u;
  }
  EXPECT_GT(slower, 0u) << "premise: the outliers sit on exercised paths";
}

TEST(CornerSimTest, LanesRejectValueChangingFaults) {
  const MultiplierNetlist m = build_array_multiplier(4);
  CornerTimingSim sim(m.netlist, default_tech_library());
  const std::vector<double> table(m.netlist.num_gates(), 1.0);
  for (const FaultSite site :
       {FaultSite{.kind = FaultKind::kStuckAt0, .gate = 1},
        FaultSite{.kind = FaultKind::kStuckAt1, .gate = 2},
        FaultSite{.kind = FaultKind::kTransient, .gate = 3, .cycle = 4}}) {
    FaultOverlay overlay(m.netlist.num_gates());
    overlay.add({.kind = FaultKind::kDelayOutlier, .gate = 0,
                 .delay_factor = 2.0});
    overlay.add(site);
    EXPECT_THROW(sim.set_lane_scales(0, table, &overlay),
                 std::invalid_argument)
        << fault_kind_name(site.kind);
  }
  const FaultOverlay other_netlist(m.netlist.num_gates() + 1);
  EXPECT_THROW(sim.set_lane_scales(0, table, &other_netlist),
               std::invalid_argument);
  const FaultOverlay empty(m.netlist.num_gates());
  EXPECT_NO_THROW(sim.set_lane_scales(0, {}, &empty));
}

TEST(CornerSimTest, LiveRangeSlotsAreFarFewerThanNets) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const CornerTimingSim sim(m.netlist, default_tech_library());
  EXPECT_GT(sim.num_slots(), 0u);
  EXPECT_LT(sim.num_slots() * 4, m.netlist.num_nets());
}

TEST(CornerSimTest, RejectsBadLanesAndTables) {
  const MultiplierNetlist m = build_array_multiplier(4);
  CornerTimingSim sim(m.netlist, default_tech_library());
  const std::vector<double> table(m.netlist.num_gates(), 1.0);
  EXPECT_THROW(sim.set_lane_scales(-1, table), std::invalid_argument);
  EXPECT_THROW(sim.set_lane_scales(kCornerLanes, table),
               std::invalid_argument);
  EXPECT_THROW(sim.set_lane_scales(0, std::vector<double>(3, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(sim.power_up(0), std::invalid_argument);
  EXPECT_THROW(sim.power_up(kCornerLanes + 1), std::invalid_argument);
  EXPECT_THROW(sim.step(std::vector<Logic>(3, Logic::kZero)),
               std::invalid_argument);
  // Power-up outputs are X until a pattern settles them.
  EXPECT_THROW(sim.output_bits(), std::logic_error);
}

}  // namespace
}  // namespace agingsim
