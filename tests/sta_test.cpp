#include "src/sim/sta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/netlist/surgeon.hpp"

namespace agingsim {
namespace {

// One corner of a fresh engine: the max plane is the setup-side timing the
// StaTest cases pin.
CornerTiming sta(const Netlist& nl, const TechLibrary& tech,
                 std::vector<double> scale = {}) {
  return StaEngine(nl, tech).run_corner(StaCorner{"", std::move(scale)});
}

TEST(StaTest, ChainAccumulatesDelay) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId x = nb.inv(a);
  const NetId y = nb.inv(x);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  const CornerTiming r = sta(nb.netlist(), t);
  const double inv = t.delay(CellKind::kInv);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[a], 0.0);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[x], inv);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[y], 2.0 * inv);
  EXPECT_DOUBLE_EQ(r.critical_path_ps, 2.0 * inv);
}

TEST(StaTest, TakesWorstInputArrival) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId slow = nb.inv(nb.inv(nb.inv(a)));  // 3 inv
  const NetId y = nb.and2(slow, b);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  const CornerTiming r = sta(nb.netlist(), t);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[y], 3.0 * t.delay(CellKind::kInv) +
                                        t.delay(CellKind::kAnd2));
}

TEST(StaTest, CriticalPathIsOverOutputsOnly) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId y = nb.inv(a);
  nb.inv(nb.inv(y));  // deeper dead-end logic, not an output
  nb.netlist().mark_output(y, "y");
  const CornerTiming r = sta(nb.netlist(), default_tech_library());
  EXPECT_DOUBLE_EQ(r.critical_path_ps,
                   default_tech_library().delay(CellKind::kInv));
}

TEST(StaTest, AgingOverlayScalesPerGate) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId x = nb.inv(a);
  const NetId y = nb.inv(x);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  const std::vector<double> scales = {2.0, 3.0};
  const CornerTiming r = sta(nb.netlist(), t, scales);
  EXPECT_DOUBLE_EQ(r.critical_path_ps, 5.0 * t.delay(CellKind::kInv));
}

// Golden arrivals on a hand-built full adder: every net's arrival is the
// longest input arrival plus the cell delay, checked against closed-form
// values rather than against the implementation's own topological sweep.
TEST(StaTest, GoldenArrivalsOnFullAdder) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId cin = nb.input("cin");
  const NetId s1 = nb.xor2(a, b);
  const NetId sum = nb.xor2(s1, cin);
  const NetId c1 = nb.and2(a, b);
  const NetId c2 = nb.and2(s1, cin);
  const NetId carry = nb.or2(c1, c2);
  nb.netlist().mark_output(sum, "sum");
  nb.netlist().mark_output(carry, "carry");
  const TechLibrary& t = default_tech_library();
  const double dx = t.delay(CellKind::kXor2);
  const double da = t.delay(CellKind::kAnd2);
  const double dor = t.delay(CellKind::kOr2);
  const CornerTiming r = sta(nb.netlist(), t);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[s1], dx);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[sum], 2.0 * dx);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[c1], da);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[c2], dx + da);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[carry], dx + da + dor);
  EXPECT_DOUBLE_EQ(r.critical_path_ps, std::max(2.0 * dx, dx + da + dor));
}

// Tri-state buffers are ordinary timing arcs: the enable pin's arrival
// propagates through kTbuf exactly like a data pin's.
TEST(StaTest, TriStateEnableArcCounts) {
  NetlistBuilder nb;
  const NetId d = nb.input("d");
  const NetId en = nb.input("en");
  const NetId en_slow = nb.inv(nb.inv(en));
  const NetId bus = nb.tbuf(d, en_slow);
  nb.netlist().mark_output(bus, "bus");
  const TechLibrary& t = default_tech_library();
  const CornerTiming r = sta(nb.netlist(), t);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[bus],
                   2.0 * t.delay(CellKind::kInv) + t.delay(CellKind::kTbuf));
  EXPECT_DOUBLE_EQ(r.critical_path_ps, r.max_arrival_ps[bus]);
}

// A net nothing reads (dangling gate output) is still timed — aging models
// consume per-net arrivals whether or not the net fans out — while nets
// never driven by a gate (unused primary inputs) stay at arrival 0.
TEST(StaTest, FanoutFreeAndUndrivenNets) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId unused = nb.input("unused");
  const NetId y = nb.inv(a);
  const NetId dangling = nb.and2(y, a);  // no fanout, not an output
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  const CornerTiming r = sta(nb.netlist(), t);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[unused], 0.0);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[dangling],
                   t.delay(CellKind::kInv) + t.delay(CellKind::kAnd2));
  EXPECT_DOUBLE_EQ(r.critical_path_ps, t.delay(CellKind::kInv));
}

// Tie cells have no fanin, so their arrival is just the cell delay, and a
// constant input to downstream logic starts the path there.
TEST(StaTest, TieCellsSeedTheirOwnDelay) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId one = nb.one();
  // The builder folds and2(a, one) to a, so drive the gate in raw to get a
  // real tie arc into the timing graph — and assert the fold while here.
  EXPECT_EQ(nb.and2(a, one), a);
  const NetId y = nb.netlist().add_gate(CellKind::kAnd2, {a, one});
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  const CornerTiming r = sta(nb.netlist(), t);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[one], t.delay(CellKind::kTie1));
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[y],
                   t.delay(CellKind::kTie1) + t.delay(CellKind::kAnd2));
}

// A zero overlay entry freezes that gate's delay contribution entirely;
// the path through it is still traced.
TEST(StaTest, ZeroScaleOverlayFreezesAGate) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId x = nb.inv(a);
  const NetId y = nb.inv(x);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  const std::vector<double> scales = {0.0, 1.0};
  const CornerTiming r = sta(nb.netlist(), t, scales);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[x], 0.0);
  EXPECT_DOUBLE_EQ(r.critical_path_ps, t.delay(CellKind::kInv));
}

TEST(StaTest, RejectsWrongOverlaySize) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  nb.netlist().mark_output(nb.inv(a), "y");
  const std::vector<double> wrong = {1.0, 1.0};
  EXPECT_THROW(sta(nb.netlist(), default_tech_library(), wrong),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// StaEngine: levelized min/max multi-corner analysis
// ---------------------------------------------------------------------------

// Golden min AND max arrivals on the full-adder fixture, against closed-form
// values. The min plane takes the *shortest* input arc per gate.
TEST(StaEngineTest, GoldenMinMaxOnFullAdder) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId cin = nb.input("cin");
  const NetId s1 = nb.xor2(a, b);
  const NetId sum = nb.xor2(s1, cin);
  const NetId c1 = nb.and2(a, b);
  const NetId c2 = nb.and2(s1, cin);
  const NetId carry = nb.or2(c1, c2);
  nb.netlist().mark_output(sum, "sum");
  nb.netlist().mark_output(carry, "carry");
  const TechLibrary& t = default_tech_library();
  const double dx = t.delay(CellKind::kXor2);
  const double da = t.delay(CellKind::kAnd2);
  const double dor = t.delay(CellKind::kOr2);

  const StaEngine engine(nb.netlist(), t);
  const CornerTiming r = engine.run_corner(StaCorner{"fresh", {}});
  // Max plane: identical to StaTest.GoldenArrivalsOnFullAdder.
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[sum], 2.0 * dx);
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[carry], dx + da + dor);
  // Min plane: sum's fastest arc is cin (arrival 0) straight into the
  // second XOR; carry's fastest is either AND (both reach it at min da).
  EXPECT_DOUBLE_EQ(r.min_arrival_ps[s1], dx);
  EXPECT_DOUBLE_EQ(r.min_arrival_ps[sum], dx);
  EXPECT_DOUBLE_EQ(r.min_arrival_ps[c1], da);
  EXPECT_DOUBLE_EQ(r.min_arrival_ps[c2], da);
  EXPECT_DOUBLE_EQ(r.min_arrival_ps[carry], da + dor);
  EXPECT_DOUBLE_EQ(r.critical_path_ps, std::max(2.0 * dx, dx + da + dor));
  EXPECT_DOUBLE_EQ(r.earliest_output_ps, std::min(dx, da + dor));
}

// The min plane includes the tri-state *enable* arc: a toggling bypass
// select propagates new data through a kTbuf as soon as the enable arrives,
// even while the data pin is still settling. The max plane's always-enabled
// reading cannot see this — its arrival for the same net is the slow data
// path — which is why hold reasoning must read the min plane (documented in
// sta.hpp and pinned here).
TEST(StaEngineTest, TbufEnableArcDefinesMinArrival) {
  NetlistBuilder nb;
  const NetId d = nb.input("d");
  const NetId en = nb.input("en");
  const NetId d_slow = nb.inv(nb.inv(d));
  const NetId bus = nb.tbuf(d_slow, en);  // enable straight off a PI
  nb.netlist().mark_output(bus, "bus");
  const TechLibrary& t = default_tech_library();
  const double dinv = t.delay(CellKind::kInv);
  const double dtb = t.delay(CellKind::kTbuf);

  const StaEngine engine(nb.netlist(), t);
  const CornerTiming r = engine.run_corner(StaCorner{"fresh", {}});
  EXPECT_DOUBLE_EQ(r.min_arrival_ps[bus], dtb);            // enable arc
  EXPECT_DOUBLE_EQ(r.max_arrival_ps[bus], 2.0 * dinv + dtb);  // data arc
  EXPECT_GT(r.max_arrival_ps[bus], r.min_arrival_ps[bus]);
}

// One run() call covers several corners; each corner's planes match the
// equivalent single-corner run exactly, and names survive.
TEST(StaEngineTest, MultiCornerSinglePass) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId y = nb.and2(nb.inv(a), b);
  nb.netlist().mark_output(y, "y");
  const TechLibrary& t = default_tech_library();
  const StaEngine engine(nb.netlist(), t);

  std::vector<StaCorner> corners(2);
  corners[0].name = "fresh";
  corners[1].name = "aged";
  corners[1].gate_delay_scale.assign(nb.netlist().num_gates(), 1.5);
  const std::vector<CornerTiming> r = engine.run(corners);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].name, "fresh");
  EXPECT_EQ(r[1].name, "aged");
  for (std::size_t c = 0; c < corners.size(); ++c) {
    const CornerTiming single = engine.run_corner(corners[c]);
    EXPECT_EQ(r[c].min_arrival_ps, single.min_arrival_ps);
    EXPECT_EQ(r[c].max_arrival_ps, single.max_arrival_ps);
    EXPECT_EQ(r[c].critical_path_ps, single.critical_path_ps);
  }
  EXPECT_DOUBLE_EQ(r[1].critical_path_ps, 1.5 * r[0].critical_path_ps);
}

// Reference max-only timing: one ascending-gate-id sweep, worst input
// arrival + delay. The engine's max plane must agree with this
// *exactly* (operator==, no tolerance) — same pin visit order, same
// arithmetic — on every generated multiplier.
struct ReferenceTiming {
  std::vector<double> arrival_ps;
  double critical_path_ps = 0.0;
};

ReferenceTiming reference_max_sta(const Netlist& nl, const TechLibrary& tech,
                                   std::span<const double> scale) {
  ReferenceTiming r;
  r.arrival_ps.assign(nl.num_nets(), 0.0);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gt = nl.gate(g);
    double worst = 0.0;
    for (const NetId in : nl.gate_inputs(g)) {
      worst = std::max(worst, r.arrival_ps[in]);
    }
    double d = tech.delay(gt.kind);
    if (!scale.empty()) d *= scale[g];
    r.arrival_ps[gt.out] = worst + d;
  }
  for (const NetId o : nl.output_nets()) {
    r.critical_path_ps = std::max(r.critical_path_ps, r.arrival_ps[o]);
  }
  return r;
}

TEST(StaEngineTest, MaxPlaneExactlyMatchesLegacyOnAllMultipliers) {
  const TechLibrary& t = default_tech_library();
  for (const MultiplierArch arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
        MultiplierArch::kRowBypass, MultiplierArch::kWallaceTree}) {
    for (const int width : {4, 8}) {
      const MultiplierNetlist mult = build_multiplier(arch, width);
      const Netlist& nl = mult.netlist;
      // Deterministic non-uniform overlay standing in for an aged corner.
      std::vector<double> scale(nl.num_gates());
      for (std::size_t g = 0; g < scale.size(); ++g) {
        scale[g] = 1.0 + 0.01 * static_cast<double>(g % 7);
      }
      const StaEngine engine(nl, t);
      for (const std::span<const double> overlay :
           {std::span<const double>{}, std::span<const double>(scale)}) {
        const ReferenceTiming ref = reference_max_sta(nl, t, overlay);
        StaCorner corner;
        corner.gate_delay_scale.assign(overlay.begin(), overlay.end());
        const CornerTiming mm = engine.run_corner(corner);
        ASSERT_EQ(mm.max_arrival_ps.size(), ref.arrival_ps.size());
        for (NetId n = 0; n < nl.num_nets(); ++n) {
          ASSERT_EQ(mm.max_arrival_ps[n], ref.arrival_ps[n])
              << arch_name(arch) << width << " net " << n;
        }
        EXPECT_EQ(mm.critical_path_ps, ref.critical_path_ps);
        // And the fixed-latency period helper reads the same number.
        EXPECT_EQ(critical_path_ps(mult, t, overlay), ref.critical_path_ps);
      }
    }
  }
}

// Golden downstream (net -> endpoint) delay bounds on the full adder with
// the carry output as the only endpoint.
TEST(StaEngineTest, DownstreamGoldenOnFullAdder) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId cin = nb.input("cin");
  const NetId s1 = nb.xor2(a, b);
  const NetId sum = nb.xor2(s1, cin);
  const NetId c1 = nb.and2(a, b);
  const NetId c2 = nb.and2(s1, cin);
  const NetId carry = nb.or2(c1, c2);
  nb.netlist().mark_output(sum, "sum");
  nb.netlist().mark_output(carry, "carry");
  const TechLibrary& t = default_tech_library();
  const double dx = t.delay(CellKind::kXor2);
  const double da = t.delay(CellKind::kAnd2);
  const double dor = t.delay(CellKind::kOr2);

  const StaEngine engine(nb.netlist(), t);
  std::vector<std::uint8_t> endpoint(nb.netlist().num_nets(), 0);
  endpoint[carry] = 1;
  const StaEngine::Downstream d =
      engine.downstream(StaCorner{"fresh", {}}, endpoint);
  EXPECT_DOUBLE_EQ(d.min_ps[carry], 0.0);
  EXPECT_DOUBLE_EQ(d.max_ps[carry], 0.0);
  EXPECT_DOUBLE_EQ(d.min_ps[c1], dor);
  EXPECT_DOUBLE_EQ(d.max_ps[c1], dor);
  EXPECT_DOUBLE_EQ(d.min_ps[s1], da + dor);
  EXPECT_DOUBLE_EQ(d.max_ps[s1], da + dor);
  // a reaches carry through c1 (da + dor) or through s1 -> c2 (dx + da + dor).
  EXPECT_DOUBLE_EQ(d.min_ps[a], da + dor);
  EXPECT_DOUBLE_EQ(d.max_ps[a], dx + da + dor);
  // sum is not an endpoint and reaches none: +inf / -inf sentinels.
  EXPECT_TRUE(std::isinf(d.min_ps[sum]));
  EXPECT_TRUE(std::isinf(d.max_ps[sum]));
  EXPECT_THROW(
      engine.downstream(StaCorner{"fresh", {}},
                        std::vector<std::uint8_t>(endpoint.size() + 1, 0)),
      std::invalid_argument);
}

TEST(StaEngineTest, IdOrderSweepsSettleBothPlanes) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId x = nb.inv(a);     // gate 0, level 0
  const NetId y = nb.inv(b);     // gate 1, level 0
  const NetId z = nb.and2(x, y); // gate 2, level 1
  nb.netlist().mark_output(z, "z");
  const TechLibrary& t = default_tech_library();
  const StaEngine engine(nb.netlist(), t);
  const double inv = t.delay(CellKind::kInv);
  const double and2 = t.delay(CellKind::kAnd2);
  // Gate 1 runs 3x slow, so z's earliest and latest arrivals differ.
  const StaCorner skewed{"skewed", {1.0, 3.0, 1.0}};
  const CornerTiming r = engine.run_corner(skewed);
  EXPECT_EQ(r.min_arrival_ps,
            (std::vector<double>{0.0, 0.0, inv, 3.0 * inv, inv + and2}));
  EXPECT_EQ(r.max_arrival_ps,
            (std::vector<double>{0.0, 0.0, inv, 3.0 * inv, 3.0 * inv + and2}));
  EXPECT_EQ(r.critical_path_ps, 3.0 * inv + and2);
  EXPECT_EQ(r.earliest_output_ps, inv + and2);

  std::vector<std::uint8_t> endpoint(nb.netlist().num_nets(), 0);
  endpoint[z] = 1;
  const StaEngine::Downstream d = engine.downstream(skewed, endpoint);
  const std::vector<double> to_z = {inv + and2, 3.0 * inv + and2, and2, and2,
                                    0.0};
  EXPECT_EQ(d.min_ps, to_z);
  EXPECT_EQ(d.max_ps, to_z);
}

TEST(StaEngineTest, ConstructorRejectsCorruptNetlist) {
  NetlistBuilder nb;
  const NetId a = nb.input("a");
  const NetId x = nb.inv(a);
  const NetId y = nb.inv(x);
  nb.netlist().mark_output(y, "y");
  Netlist broken = nb.netlist();
  // Forward reference: gate 0 now reads its own output's successor.
  NetlistSurgeon(broken).set_pin(0, y);
  EXPECT_THROW(StaEngine(broken, default_tech_library()),
               std::invalid_argument);
}

}  // namespace
}  // namespace agingsim
