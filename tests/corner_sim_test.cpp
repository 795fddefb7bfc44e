// Differential tests of the corner-parallel timing kernel
// (src/sim/corner_sim.cpp) against one scalar TimingSim per lane, each
// built with that lane's delay scales. Every lane's output settle and
// product must be exactly `==` the scalar kernel's, on streams that start
// from the all-X power-up, for 1, 31 and 32 lanes in use: streams cut into
// words whose first and last are partial, an every-cell-kind netlist whose
// Tbuf keeper powers up X and holds its value across a word boundary, a
// power-up between two streams, and lanes carrying a delay-outlier overlay
// on top of their aging table. The Tbuf keeper fill every word sweep
// shares (word_eval.hpp) is checked against a lane-by-lane eval_cell
// chain.

#include "src/sim/corner_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <tuple>
#include <vector>

#include "src/aging/variation.hpp"
#include "src/fault/fault.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/sim/word_eval.hpp"
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

using Stream = std::vector<std::vector<Logic>>;

/// The input words of stream patterns [first, first + count): bit p of
/// word i is input i on pattern first + p.
std::vector<std::uint64_t> pack_words(const Stream& stream, std::size_t first,
                                      int count) {
  std::vector<std::uint64_t> words(stream[first].size(), 0);
  for (int p = 0; p < count; ++p) {
    const std::vector<Logic>& inputs = stream[first + std::size_t(p)];
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i] == Logic::kOne) words[i] |= std::uint64_t{1} << p;
    }
  }
  return words;
}

/// Steps `stream` through `sim` in words: the first holds `first_word`
/// patterns, each later one kBatchLanes, the last what is left. After
/// each word, calls check(op, settle, pattern) for every op it held, with
/// that op's kCornerLanes settles and its pattern index in the word.
template <typename Check>
void step_stream(CornerTimingSim& sim, const Stream& stream, int first_word,
                 Check&& check) {
  int size = first_word;
  for (std::size_t op = 0; op < stream.size();) {
    const int count = static_cast<int>(
        std::min<std::size_t>(std::size_t(size), stream.size() - op));
    const std::span<const double> settle =
        sim.step_word(pack_words(stream, op, count), count);
    ASSERT_EQ(settle.size(), std::size_t(count) * kCornerLanes);
    for (int p = 0; p < count; ++p) {
      check(op + std::size_t(p),
            settle.subspan(std::size_t(p) * kCornerLanes, kCornerLanes), p);
      if (::testing::Test::HasFatalFailure()) return;
    }
    op += std::size_t(count);
    size = kBatchLanes;
  }
}

/// Runs `stream` through one CornerTimingSim at every lane count and with
/// every first-word size, a power-up before each run, and checks each
/// lane's settle and every net value against its scalar reference.
void expect_matches_scalar(const Netlist& nl, const Stream& stream,
                           const std::string& label,
                           std::initializer_list<int> first_words = {
                               kBatchLanes}) {
  for (const bool random : {false, true}) {
    const auto tables = lane_tables(nl, random);
    const ScalarRun want = scalar_run(nl, tables, stream);
    CornerTimingSim sim(nl, default_tech_library());
    for (const int lanes : kLaneCounts) {
      for (const int first_word : first_words) {
        for (int l = 0; l < lanes; ++l) sim.set_lane_scales(l, tables[l]);
        sim.power_up(lanes);
        step_stream(sim, stream, first_word, [&](std::size_t op,
                                                 std::span<const double> settle,
                                                 int pattern) {
          const std::string where =
              label + (random ? " lognormal" : " fresh") + " lanes " +
              std::to_string(lanes) + " first word " +
              std::to_string(first_word) + " op " + std::to_string(op);
          std::vector<Logic> values(nl.num_nets());
          for (NetId n = 0; n < nl.num_nets(); ++n) {
            values[n] = sim.lane_value(n, pattern);
          }
          for (int l = 0; l < lanes; ++l) {
            ASSERT_EQ(settle[l], want.settle[l][op]) << where << " lane " << l;
            ASSERT_TRUE(values == want.values[l][op])
                << where << " lane " << l << ": net values differ";
          }
        });
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

/// One stream pattern per operand pair.
Stream operand_stream(const MultiplierNetlist& m,
                      const std::vector<OperandPattern>& pats) {
  Stream stream;
  for (const OperandPattern& p : pats) {
    std::vector<Logic> inputs(m.netlist.num_inputs(), Logic::kZero);
    load_bus(inputs, p.a, m.width, m.a_first_input);
    load_bus(inputs, p.b, m.width, m.b_first_input);
    stream.push_back(std::move(inputs));
  }
  return stream;
}

using ArchWidth = std::tuple<MultiplierArch, int>;

class CornerSimParam : public ::testing::TestWithParam<ArchWidth> {};

TEST_P(CornerSimParam, EveryLaneMatchesItsScalarTimingSimExactly) {
  const auto [arch, width] = GetParam();
  const MultiplierNetlist m = build_multiplier(arch, width);
  Rng rng(0x5EED + static_cast<std::uint64_t>(width));
  std::vector<OperandPattern> pats =
      uniform_patterns(rng, width, width == 32 ? 24 : 40);
  pats.push_back(pats.back());  // a pattern where nothing changes settles at 0
  const Stream stream = operand_stream(m, pats);
  const std::string label = std::string(arch_name(arch)) +
                            std::to_string(width);
  // One partial word, and a 7-pattern word before the rest.
  expect_matches_scalar(m.netlist, stream, label, {kBatchLanes, 7});

  // Products: the shared values are the golden product after every op.
  CornerTimingSim sim(m.netlist, default_tech_library());
  sim.power_up(kCornerLanes);
  step_stream(sim, stream, 7,
              [&](std::size_t op, std::span<const double>, int pattern) {
                ASSERT_EQ(sim.output_bits(pattern),
                          reference_multiply(pats[op].a, pats[op].b, width))
                    << label << " op " << op;
              });
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
    std::string name = "y";
    name += std::to_string(i);
    nl.mark_output(outs[i], std::move(name));
  }
  Rng rng(20261017);
  std::vector<std::vector<Logic>> stream(300);
  for (auto& inputs : stream) {
    for (int i = 0; i < 4; ++i) {
      inputs.push_back(logic_from_bool((rng.next() & 1) != 0));
    }
  }
  expect_matches_scalar(nl, stream, "cell kinds", {kBatchLanes, 29});
}

TEST(CornerSimTest, StreamsCutIntoPartialWordsMatchScalar) {
  // 1, 63, 64, 65 and 129 patterns: one partial word, one just short of
  // full, exactly one, one pattern over, and two words and one over. A
  // 37-pattern first word makes the first word partial too.
  const MultiplierNetlist m = build_column_bypass_multiplier(8);
  for (const std::size_t ops : {1u, 63u, 64u, 65u, 129u}) {
    Rng rng(0x51DE + ops);
    const Stream stream = operand_stream(m, uniform_patterns(rng, 8, ops));
    expect_matches_scalar(m.netlist, stream,
                          "CB8 " + std::to_string(ops) + " patterns",
                          {kBatchLanes, 37});
    if (HasFatalFailure()) return;
  }
}

TEST(CornerSimTest, TbufKeepsItsValueAcrossAWordBoundary) {
  // The Tbuf is driven on patterns 10 (to 1) and 100 (to 0) only, so it
  // holds 1 from pattern 10 across the boundary at 64 while d keeps
  // moving.
  NetlistBuilder nb;
  Netlist& nl = nb.netlist();
  const NetId d = nb.input("d");
  const NetId en = nb.input("en");
  const NetId kept = nl.add_gate(CellKind::kTbuf, {d, en});
  nl.mark_output(nl.add_gate(CellKind::kBuf, {kept}), "y0");
  nl.mark_output(nl.add_gate(CellKind::kXor2, {kept, d}), "y1");
  Rng rng(0x7B0F);
  Stream stream(130);
  for (std::size_t op = 0; op < stream.size(); ++op) {
    const bool driven = op == 10 || op == 100;
    stream[op] = {logic_from_bool(driven ? op == 10 : (rng.next() & 1) != 0),
                  logic_from_bool(driven)};
  }
  expect_matches_scalar(nl, stream, "keeper", {kBatchLanes, 50});

  // Outputs y0 = kept and y1 = kept ^ d read the keeper: X until pattern
  // 10, so output_bits rejects those settled patterns as unknown (a
  // logic_error, not the out_of_range of a pattern outside the word).
  CornerTimingSim sim(nl, default_tech_library());
  sim.power_up(kCornerLanes);
  step_stream(sim, stream, kBatchLanes,
              [&](std::size_t op, std::span<const double>, int pattern) {
                const Logic want = op < 10    ? Logic::kX
                                   : op < 100 ? Logic::kOne
                                              : Logic::kZero;
                ASSERT_EQ(sim.lane_value(kept, pattern), want) << "op " << op;
                if (op >= 10) {
                  const std::uint64_t y0 = want == Logic::kOne ? 1 : 0;
                  const std::uint64_t d_bit =
                      stream[op][0] == Logic::kOne ? 1 : 0;
                  ASSERT_EQ(sim.output_bits(pattern), y0 | ((y0 ^ d_bit) << 1))
                      << "op " << op;
                  return;
                }
                try {
                  (void)sim.output_bits(pattern);
                  ADD_FAILURE() << "op " << op << ": X output accepted";
                } catch (const std::out_of_range&) {
                  ADD_FAILURE() << "op " << op << ": settled pattern rejected";
                } catch (const std::logic_error&) {
                }
              });
}

TEST(CornerSimTest, PowerUpBetweenStreamsStartsFromX) {
  // A second stream after power_up settles exactly like a fresh scalar
  // simulator: the first stream leaves no value and no change behind.
  const MultiplierNetlist m = build_row_bypass_multiplier(8);
  const Netlist& nl = m.netlist;
  Rng rng(0xB007);
  const Stream first = operand_stream(m, uniform_patterns(rng, 8, 70));
  const Stream second = operand_stream(m, uniform_patterns(rng, 8, 90));
  const auto tables = lane_tables(nl, true);
  const ScalarRun want = scalar_run(nl, tables, second);
  for (const int lanes : kLaneCounts) {
    CornerTimingSim sim(nl, default_tech_library());
    for (int l = 0; l < kCornerLanes; ++l) sim.set_lane_scales(l, tables[l]);
    sim.power_up(kCornerLanes);
    step_stream(sim, first, 33, [](std::size_t, std::span<const double>,
                                   int) {});
    sim.power_up(lanes);
    step_stream(sim, second, 41,
                [&](std::size_t op, std::span<const double> settle,
                    int pattern) {
                  for (int l = 0; l < lanes; ++l) {
                    ASSERT_EQ(settle[l], want.settle[l][op])
                        << "lanes " << lanes << " op " << op << " lane " << l;
                  }
                  for (NetId n = 0; n < nl.num_nets(); ++n) {
                    ASSERT_EQ(sim.lane_value(n, pattern), want.values[0][op][n])
                        << "lanes " << lanes << " op " << op << " net " << n;
                  }
                });
    if (HasFatalFailure()) return;
  }
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
  const Stream stream = operand_stream(m, uniform_patterns(rng, 8, 60));

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
  step_stream(sim, stream, 25,
              [&](std::size_t op, std::span<const double> settle, int) {
                for (int l = 0; l < kCornerLanes; ++l) {
                  ASSERT_EQ(settle[l], want[l][op])
                      << "lane " << l << " op " << op;
                }
                // Lanes 1 and 3 are both fresh; only lane 1 carries
                // outliers.
                slower += settle[1] > settle[3] ? 1u : 0u;
              });
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
  sim.power_up(kCornerLanes);
  EXPECT_THROW(sim.step_word(std::vector<std::uint64_t>(3, 0)),
               std::invalid_argument);
  // Nothing is settled until a word has run.
  EXPECT_THROW(sim.output_bits(0), std::out_of_range);
  EXPECT_THROW((void)sim.lane_value(0, 0), std::out_of_range);
  std::vector<std::uint64_t> words(m.netlist.num_inputs(), 0);
  EXPECT_THROW(sim.step_word(words, 0), std::invalid_argument);
  EXPECT_THROW(sim.step_word(words, kBatchLanes + 1),
               std::invalid_argument);
  sim.step_word(words, 5);
  EXPECT_EQ(sim.output_bits(4), 0u);
  EXPECT_THROW(sim.output_bits(5), std::out_of_range);
  EXPECT_THROW((void)sim.lane_value(0, 5), std::out_of_range);
  EXPECT_THROW((void)sim.lane_value(0, -1), std::out_of_range);
}

TEST(WordEvalTest, TbufKeeperFillMatchesLaneByLaneChain) {
  // eval_word's Tbuf against the chain it replaces: eval_cell lane by lane
  // from `kept`, a strike inverting its lane (logic_not) before the next
  // lane reads it, and 0 in both planes at and above `lanes`. Data and
  // enables take every Logic value; enables are mostly 0, so the keeper
  // carries values over long runs.
  Rng rng(0x7EE9);
  for (int trial = 0; trial < 40000; ++trial) {
    const int lanes = 1 + static_cast<int>(rng.next_below(64));
    const std::uint64_t lane_mask =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    const std::uint64_t ip0[2] = {rng.next(), rng.next() & rng.next()};
    const std::uint64_t ip1[2] = {rng.next(),
                                  rng.next() & rng.next() & rng.next()};
    const std::uint64_t flip =
        trial % 2 == 0 ? 0 : rng.next() & rng.next() & rng.next();
    const auto kept = static_cast<Logic>((trial / 2) % 4);

    std::uint64_t want0 = 0, want1 = 0;
    Logic cur = kept;
    for (int l = 0; l < lanes; ++l) {
      const Logic ins[2] = {detail::lane_logic(ip0[0], ip1[0], l),
                            detail::lane_logic(ip0[1], ip1[1], l)};
      Logic v = eval_cell(CellKind::kTbuf, ins, cur);
      if (((flip >> l) & 1u) != 0) v = logic_not(v);
      want0 |= (static_cast<std::uint64_t>(v) & 1u) << l;
      want1 |= (static_cast<std::uint64_t>(v) >> 1) << l;
      cur = v;
    }
    const detail::WordPlanes got =
        detail::eval_word(CellKind::kTbuf, ip0, ip1, kept, lane_mask, flip);
    ASSERT_EQ(got.p0, want0) << "trial " << trial << " lanes " << lanes;
    ASSERT_EQ(got.p1, want1) << "trial " << trial << " lanes " << lanes;
  }
}

}  // namespace
}  // namespace agingsim
