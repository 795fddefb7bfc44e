// Differential tests of the word-parallel stress extraction
// (src/aging/stress.cpp) against a pattern-by-pattern TimingSim reference.
// estimate_stress only counts ones, so its result must be exactly `==`
// to the scalar simulator's: across the all-X power-up, Tbuf keeper state
// carried over word boundaries, partial tail words, and every cell kind.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <tuple>
#include <vector>

#include "src/aging/stress.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

constexpr std::size_t kPatternCounts[] = {1, 63, 64, 65, 1000};
constexpr std::uint64_t kSeeds[] = {1, 0xD1FF, 20261016};

/// Profile a count of ones per net turns into (the estimator's formulas).
StressProfile profile_from_ones(const Netlist& nl,
                                const std::vector<std::uint64_t>& ones,
                                std::size_t patterns) {
  StressProfile prof;
  for (const std::uint64_t c : ones) {
    prof.net_p_one.push_back(static_cast<double>(c) /
                             static_cast<double>(patterns));
  }
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const double p1 = prof.net_p_one[nl.gate(g).out];
    prof.pmos_stress.push_back(p1);
    prof.nmos_stress.push_back(1.0 - p1);
  }
  return prof;
}

/// The scalar reference: one TimingSim step per pattern, drawing the input
/// bits pattern-major in input order. Pattern p depends only on the seed
/// and p, so one run of the largest count yields every smaller count's
/// profile as a prefix.
std::vector<StressProfile> scalar_profiles(const Netlist& nl,
                                           std::uint64_t seed) {
  TimingSim sim(nl, default_tech_library());
  Rng rng(seed);
  std::vector<Logic> pattern(nl.num_inputs());
  std::vector<std::uint64_t> ones(nl.num_nets(), 0);
  std::vector<StressProfile> out;
  const std::size_t last = std::size(kPatternCounts) - 1;
  for (std::size_t p = 1; p <= kPatternCounts[last]; ++p) {
    for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
    sim.step(pattern);
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (sim.value(n) == Logic::kOne) ++ones[n];
    }
    if (p == kPatternCounts[out.size()]) {
      out.push_back(profile_from_ones(nl, ones, p));
    }
  }
  return out;
}

void expect_same(const std::vector<double>& want,
                 const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << what << " [" << i << "]";
  }
}

void expect_matches_scalar(const Netlist& nl, const std::string& label) {
  for (const std::uint64_t seed : kSeeds) {
    const std::vector<StressProfile> want = scalar_profiles(nl, seed);
    for (std::size_t i = 0; i < want.size(); ++i) {
      const StressProfile got = estimate_stress(nl, seed, kPatternCounts[i]);
      const std::string where = label + " seed " + std::to_string(seed) +
                                " patterns " +
                                std::to_string(kPatternCounts[i]);
      expect_same(want[i].net_p_one, got.net_p_one, where + " net_p_one");
      expect_same(want[i].pmos_stress, got.pmos_stress, where + " pmos");
      expect_same(want[i].nmos_stress, got.nmos_stress, where + " nmos");
    }
  }
}

using ArchWidth = std::tuple<MultiplierArch, int>;

class StressSweepParam : public ::testing::TestWithParam<ArchWidth> {};

TEST_P(StressSweepParam, MatchesScalarTimingSimExactly) {
  const auto [arch, width] = GetParam();
  const MultiplierNetlist m = build_multiplier(arch, width);
  if (arch == MultiplierArch::kColumnBypass ||
      arch == MultiplierArch::kRowBypass) {
    // The bypass Tbufs are what carry keeper state across words.
    const auto counts = m.netlist.gate_count_by_kind();
    ASSERT_GT(counts[static_cast<std::size_t>(CellKind::kTbuf)], 0u);
  }
  expect_matches_scalar(m.netlist, std::string(arch_name(arch)) +
                                       std::to_string(width));
}

INSTANTIATE_TEST_SUITE_P(
    ArchWidthSweep, StressSweepParam,
    ::testing::Combine(::testing::Values(MultiplierArch::kArray,
                                         MultiplierArch::kColumnBypass,
                                         MultiplierArch::kRowBypass,
                                         MultiplierArch::kWallaceTree),
                       ::testing::Values(4, 8, 16, 32)),
    [](const ::testing::TestParamInfo<ArchWidth>& info) {
      return std::string(arch_name(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(StressSweepTest, EveryCellKindThroughKeeperXMatchesScalar) {
  // A Tbuf enabled one pattern in eight powers up X and keeps its value
  // across long disabled runs, word boundaries included; every other cell
  // kind reads it, so X propagation is compared kind by kind too.
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
  const std::vector<NetId> outs = {
      nl.add_gate(CellKind::kBuf, {kept}),
      nl.add_gate(CellKind::kInv, {kept}),
      nl.add_gate(CellKind::kAnd2, {kept, a}),
      nl.add_gate(CellKind::kNand2, {kept, b}),
      nl.add_gate(CellKind::kOr2, {kept, c}),
      nl.add_gate(CellKind::kNor2, {kept, d}),
      nl.add_gate(CellKind::kXor2, {kept, a}),
      nl.add_gate(CellKind::kXnor2, {kept, b}),
      nl.add_gate(CellKind::kOr3, {kept, zero, c}),
      nl.add_gate(CellKind::kAnd3, {kept, one, d}),
      nl.add_gate(CellKind::kMux2, {a, b, kept}),
      nl.add_gate(CellKind::kMux2, {kept, kept, c}),
      nl.add_gate(CellKind::kTbuf, {kept, b}),
      nl.add_gate(CellKind::kTbuf, {b, x_en}),
  };
  for (std::size_t i = 0; i < outs.size(); ++i) {
    std::string name = "y";
    name += std::to_string(i);
    nl.mark_output(outs[i], std::move(name));
  }
  expect_matches_scalar(nl, "cell kinds");
}

}  // namespace
}  // namespace agingsim
