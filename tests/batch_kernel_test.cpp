// Differential tests of the 64-lane batch kernel (src/sim/batch_sim.hpp)
// against the scalar sparse kernel. The contract is the one PR 2 proved for
// sparse-vs-dense, extended lane-wise: every guaranteed StepResult field and
// every net value must be exactly `==` between a batch word and the 64
// scalar steps it packs — across power-up, aging overlays, all fault kinds
// (including transient strikes on word boundaries), mid-run overlay/aging
// swaps and partial tail words. The kernel keeps density and arrival lanes
// in live-range slots and does not store the lanes of gates fed only by
// primary inputs (their readers recompute them), so faults on those gates,
// 32-bit multipliers and every cell kind read straight off the inputs get
// their own cases.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/batch_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {
namespace {

const TechLibrary& test_tech() {
  static const TechLibrary t = calibrated_tech_library(1880.0);
  return t;
}

/// Scoped setenv/unsetenv that restores the previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// Runs `ops` (bit i of an op = primary input i) through a batch simulator
/// word by word and a scalar sparse simulator op by op, and requires
/// bit-identical observable state after every lane: the four guaranteed
/// StepResult fields and every net value.
void expect_stream_identical(const Netlist& nl,
                             const std::vector<std::uint64_t>& ops,
                             const FaultOverlay* overlay = nullptr,
                             std::span<const double> aging = {}) {
  ASSERT_LE(nl.num_inputs(), 64u);
  TimingSim scalar(nl, test_tech(), aging);
  BatchTimingSim batch(nl, test_tech(), aging);
  if (overlay != nullptr) {
    scalar.set_fault_overlay(overlay);
    batch.set_fault_overlay(overlay);
  }

  const std::size_t num_inputs = nl.num_inputs();
  std::vector<std::uint64_t> words(num_inputs);
  std::vector<Logic> inputs(num_inputs);
  for (std::size_t chunk = 0; chunk < ops.size();
       chunk += static_cast<std::size_t>(kBatchLanes)) {
    const int lanes = static_cast<int>(
        std::min<std::size_t>(kBatchLanes, ops.size() - chunk));
    std::fill(words.begin(), words.end(), 0);
    for (int l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < num_inputs; ++i) {
        words[i] |= ((ops[chunk + static_cast<std::size_t>(l)] >> i) & 1u)
                    << l;
      }
    }
    const std::span<const StepResult> res = batch.step_word(words, lanes);

    for (int l = 0; l < lanes; ++l) {
      const std::size_t op = chunk + static_cast<std::size_t>(l);
      for (std::size_t i = 0; i < num_inputs; ++i) {
        inputs[i] = logic_from_bool(((ops[op] >> i) & 1u) != 0);
      }
      const StepResult s = scalar.step(inputs);
      const StepResult& b = res[static_cast<std::size_t>(l)];
      // Exact equality on purpose: the kernels promise identity, not
      // closeness. gates_evaluated/gates_total are diagnostics and excluded.
      ASSERT_EQ(s.output_settle_ps, b.output_settle_ps)
          << "op " << op << " lane " << l;
      ASSERT_EQ(s.settle_ps, b.settle_ps) << "op " << op << " lane " << l;
      ASSERT_EQ(s.toggles, b.toggles) << "op " << op << " lane " << l;
      ASSERT_EQ(s.switched_cap_ff, b.switched_cap_ff)
          << "op " << op << " lane " << l;
      for (NetId net = 0; net < nl.num_nets(); ++net) {
        if (scalar.value(net) != batch.lane_value(net, l)) {
          ADD_FAILURE() << "net " << net << " diverged at op " << op
                        << " (lane " << l << ")";
          return;
        }
      }
    }
  }
  EXPECT_EQ(batch.stats().lanes, ops.size());
}

/// expect_stream_identical over `ops` random operand pairs of a multiplier
/// (net values include the product outputs).
void expect_batch_identical(const MultiplierNetlist& m, std::size_t ops,
                            const FaultOverlay* overlay = nullptr,
                            std::span<const double> aging = {},
                            std::uint64_t seed = 0xD1FF) {
  ASSERT_LE(m.b_first_input + m.width, 64);
  Rng rng(seed);
  std::vector<std::uint64_t> bits(ops);
  for (std::uint64_t& op : bits) {
    const std::uint64_t a = rng.next_bits(m.width);
    const std::uint64_t b = rng.next_bits(m.width);
    op = (a << m.a_first_input) | (b << m.b_first_input);
  }
  expect_stream_identical(m.netlist, bits, overlay, aging);
}

/// Gates whose every input is a primary input — the ones whose lanes the
/// batch kernel recomputes in their readers instead of storing.
std::vector<GateId> pi_fed_gates(const Netlist& nl) {
  std::vector<GateId> out;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    bool pi_fed = true;
    for (const NetId in : nl.gate_inputs(g)) {
      pi_fed = pi_fed && nl.driver_of(in) < 0;
    }
    if (pi_fed) out.push_back(g);
  }
  return out;
}

TEST(BatchKernelTest, MatchesScalarOnRandomPatterns) {
  for (const auto arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
        MultiplierArch::kRowBypass, MultiplierArch::kWallaceTree}) {
    SCOPED_TRACE(arch_name(arch));
    const MultiplierNetlist m = build_multiplier(arch, 16);
    expect_batch_identical(m, 256);
  }
}

TEST(BatchKernelTest, SkipsWordIdleGates) {
  // The word-granular analogue of the sparse worklist: on a column-bypassing
  // multiplier a run of low-weight operands freezes whole columns for all 64
  // lanes at once, so the batch sweep must evaluate strictly fewer gate-words
  // than gates x words.
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  BatchTimingSim batch(m.netlist, test_tech());
  Rng rng(0xF00D);
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  for (int word = 0; word < 8; ++word) {
    std::fill(words.begin(), words.end(), 0);
    for (int l = 0; l < kBatchLanes; ++l) {
      // Sparse multiplicand: most bypass selects stay 0 across the word.
      load_bus_lane(words, rng.next_bits(4), m.width, m.a_first_input, l);
      load_bus_lane(words, rng.next_bits(16), m.width, m.b_first_input, l);
    }
    batch.step_word(words);
  }
  const std::uint64_t dense_equiv =
      batch.stats().words * m.netlist.num_gates();
  EXPECT_LT(batch.stats().gates_evaluated, dense_equiv);
  EXPECT_GT(batch.stats().gates_evaluated, 0u);
}

TEST(BatchKernelTest, MatchesScalarUnderAgingOverlay) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const BtiModel model = BtiModel::calibrated(test_tech());
  const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
  const auto scales = scenario.delay_scales_at(5.0);
  expect_batch_identical(m, 192, nullptr, scales);
}

TEST(BatchKernelTest, MatchesScalarUnderStuckAtFaults) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const std::size_t g = m.netlist.num_gates();
  FaultOverlay overlay(g);
  overlay.add(
      {.kind = FaultKind::kStuckAt0, .gate = static_cast<GateId>(g / 3)});
  overlay.add(
      {.kind = FaultKind::kStuckAt1, .gate = static_cast<GateId>(2 * g / 3)});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, MatchesScalarAcrossTransientWindows) {
  const MultiplierNetlist m = build_row_bypass_multiplier(16);
  FaultOverlay overlay(m.netlist.num_gates());
  // Strikes covering every word-relative position that has its own code
  // path: lane 0 of the first word, the last lane of a word (the un-flip
  // happens in the *next* word's sweep: the forced-gates spill), lane 0 of
  // the following word (strike and cleanup collide), and a mid-word lane.
  overlay.add({.kind = FaultKind::kTransient,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 2),
               .cycle = 0});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 4),
               .cycle = 63});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 5),
               .cycle = 64});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 3),
               .cycle = 100});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, MatchesScalarWithBackToBackStrikesOnOneGate) {
  // Same gate struck on the last lane of word 0 and the first lane of word
  // 1: the cleanup un-flip and the new flip land in the same sweep.
  const MultiplierNetlist m = build_array_multiplier(8);
  FaultOverlay overlay(m.netlist.num_gates());
  const GateId victim = static_cast<GateId>(m.netlist.num_gates() / 2);
  overlay.add({.kind = FaultKind::kTransient, .gate = victim, .cycle = 63});
  overlay.add({.kind = FaultKind::kTransient, .gate = victim, .cycle = 64});
  expect_batch_identical(m, 160, &overlay);
}

TEST(BatchKernelTest, MatchesScalarUnderDelayOutliers) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kDelayOutlier,
               .gate = static_cast<GateId>(m.netlist.num_gates() - 10),
               .delay_factor = 4.0});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, PartialTailWordMatchesScalar) {
  // 100 ops = one full word + a 36-lane tail; the tail word's inactive
  // lanes must not disturb state or counters.
  const MultiplierNetlist m = build_row_bypass_multiplier(12);
  expect_batch_identical(m, 100);
}

TEST(BatchKernelTest, Width32MultipliersMatchScalarAcrossWordsAndTail) {
  // Three full words and a 23-lane tail at the width the figure benches
  // run. The 32-bit generators build their 1 024 partial-product ANDs up
  // front; their lanes are recomputed by readers word after word, in slots
  // other nets reuse.
  for (const auto arch : {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
                          MultiplierArch::kRowBypass}) {
    SCOPED_TRACE(arch_name(arch));
    const MultiplierNetlist m = build_multiplier(arch, 32);
    expect_batch_identical(m, 3 * kBatchLanes + 23);
  }
}

TEST(BatchKernelTest, StuckAtsOnPrimaryInputFedGatesMatchScalar) {
  // A forced output whose lanes a reader recomputes must come back with
  // the forced planes and their toggles; gate 0 drives product bit 0, an
  // output whose lanes are stored instead.
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  const std::vector<GateId> fed = pi_fed_gates(m.netlist);
  ASSERT_GE(fed.size(), 256u);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kStuckAt0, .gate = fed[fed.size() / 3]});
  overlay.add({.kind = FaultKind::kStuckAt1, .gate = fed[2 * fed.size() / 3]});
  overlay.add({.kind = FaultKind::kStuckAt1, .gate = fed.front()});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, TransientsOnPrimaryInputFedGatesAcrossWordBoundary) {
  // The last lane of word 0 (un-flipped by word 1's sweep), lane 0 of word
  // 1 on the same gate (strike and cleanup in one sweep) and on another,
  // and the last lane of word 1 — each on a gate fed only by inputs.
  const MultiplierNetlist m = build_row_bypass_multiplier(16);
  const std::vector<GateId> fed = pi_fed_gates(m.netlist);
  ASSERT_GE(fed.size(), 256u);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kTransient,
               .gate = fed[fed.size() / 2],
               .cycle = 63});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = fed[fed.size() / 2],
               .cycle = 64});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = fed[fed.size() / 4],
               .cycle = 64});
  overlay.add({.kind = FaultKind::kTransient,
               .gate = fed[fed.size() / 5],
               .cycle = 127});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, DelayOutliersOnPrimaryInputFedGatesMatchScalar) {
  // A recomputed arrival is 0.0 plus the gate's delay: the outlier factor
  // must be in it.
  const MultiplierNetlist m = build_array_multiplier(16);
  const std::vector<GateId> fed = pi_fed_gates(m.netlist);
  ASSERT_GE(fed.size(), 256u);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kDelayOutlier,
               .gate = fed[fed.size() / 2],
               .delay_factor = 6.0});
  overlay.add({.kind = FaultKind::kDelayOutlier,
               .gate = fed.back(),
               .delay_factor = 3.0});
  expect_batch_identical(m, 192, &overlay);
}

TEST(BatchKernelTest, EveryCellKindFedByPrimaryInputsMatchesScalar) {
  // Every kind reads the inputs directly, so each one's lanes are
  // recomputed by its readers: an Xor2 pairing it with the next one, an
  // And2 taking it on both pins, and a Mux2 using it as the select. The
  // Tbuf keeper powers up X (a strike on it must stay in the keeper while
  // it is disabled); the Buf is also an output, so its lanes are stored;
  // input a is an output too.
  NetlistBuilder nb;
  Netlist& nl = nb.netlist();
  const NetId a = nb.input("a");
  const NetId b = nb.input("b");
  const NetId c = nb.input("c");
  const NetId d = nb.input("d");
  const std::vector<NetId> fed = {
      nl.add_gate(CellKind::kBuf, {a}),
      nl.add_gate(CellKind::kInv, {b}),
      nl.add_gate(CellKind::kAnd2, {a, b}),
      nl.add_gate(CellKind::kNand2, {b, c}),
      nl.add_gate(CellKind::kOr2, {c, d}),
      nl.add_gate(CellKind::kNor2, {a, d}),
      nl.add_gate(CellKind::kXor2, {a, c}),
      nl.add_gate(CellKind::kXnor2, {b, d}),
      nl.add_gate(CellKind::kAnd3, {a, b, c}),
      nl.add_gate(CellKind::kOr3, {b, c, d}),
      nl.add_gate(CellKind::kMux2, {a, b, c}),
      nl.add_gate(CellKind::kTbuf, {d, a}),
      nl.add_gate(CellKind::kTie0, {}),
      nl.add_gate(CellKind::kTie1, {}),
  };
  // A first reader that takes the net on both of its pins.
  const NetId twice = nl.add_gate(CellKind::kOr2, {c, d});
  std::vector<NetId> outs = {fed.front(), a,
                             nl.add_gate(CellKind::kXor2, {twice, twice})};
  for (std::size_t i = 0; i < fed.size(); ++i) {
    const NetId next = fed[(i + 1) % fed.size()];
    outs.push_back(nl.add_gate(CellKind::kXor2, {fed[i], next}));
    outs.push_back(nl.add_gate(CellKind::kAnd2, {fed[i], fed[i]}));
    outs.push_back(nl.add_gate(CellKind::kMux2, {next, d, fed[i]}));
  }
  for (std::size_t i = 0; i < outs.size(); ++i) {
    std::string name = "y";
    name += std::to_string(i);
    nl.mark_output(outs[i], std::move(name));
  }
  Rng rng(20261017);
  std::vector<std::uint64_t> ops(300);
  for (std::uint64_t& op : ops) op = rng.next_bits(4);
  {
    SCOPED_TRACE("fault-free");
    expect_stream_identical(nl, ops);
  }

  const auto gate_of = [&](std::size_t i) {
    return static_cast<GateId>(nl.driver_of(fed[i]));
  };
  FaultOverlay overlay(nl.num_gates());
  overlay.add({.kind = FaultKind::kTransient, .gate = gate_of(13), .cycle = 63});
  overlay.add({.kind = FaultKind::kTransient, .gate = gate_of(11), .cycle = 64});
  overlay.add({.kind = FaultKind::kTransient, .gate = gate_of(2), .cycle = 127});
  overlay.add({.kind = FaultKind::kStuckAt1, .gate = gate_of(6)});
  overlay.add(
      {.kind = FaultKind::kDelayOutlier, .gate = gate_of(10), .delay_factor = 5.0});
  SCOPED_TRACE("faulted");
  expect_stream_identical(nl, ops, &overlay);
}

TEST(BatchKernelTest, LiveRangeSlotsFollowLiveNetsNotTheNetlist) {
  const MultiplierNetlist m = build_column_bypass_multiplier(32);
  const BatchTimingSim sim(m.netlist, test_tech());
  EXPECT_GT(sim.num_slots(), 0u);
  EXPECT_LT(sim.num_slots() * 8, m.netlist.num_nets());
  // Stored at their drivers, the 32 x 32 partial-product ANDs alone would
  // hold 1 024 slots at once.
  EXPECT_LT(sim.num_slots(), 32u * 32u / 8u);
}

TEST(BatchKernelTest, LoadBusLaneRejectsLaneOutsideTheWord) {
  const MultiplierNetlist m = build_array_multiplier(4);
  std::vector<std::uint64_t> words(m.netlist.num_inputs(), 0);
  EXPECT_THROW(load_bus_lane(words, 5, m.width, m.a_first_input, -1),
               std::invalid_argument);
  EXPECT_THROW(load_bus_lane(words, 5, m.width, m.a_first_input, kBatchLanes),
               std::invalid_argument);
  EXPECT_EQ(words, std::vector<std::uint64_t>(words.size(), 0));
  load_bus_lane(words, 5, m.width, m.a_first_input, kBatchLanes - 1);
  EXPECT_EQ(words[static_cast<std::size_t>(m.a_first_input)],
            std::uint64_t{1} << (kBatchLanes - 1));
}

TEST(BatchKernelTest, LoadBusLaneRejectsNegativeFirstInput) {
  // first_input + width stays within the inputs, so only the sign of
  // first_input shows the bus starts before input 0.
  const MultiplierNetlist m = build_array_multiplier(4);
  std::vector<std::uint64_t> words(m.netlist.num_inputs(), 0);
  EXPECT_THROW(load_bus_lane(words, 3, 2, -1, 0), std::invalid_argument);
  EXPECT_THROW(load_bus_lane(words, 3, m.width, -m.width, 0),
               std::invalid_argument);
  EXPECT_EQ(words, std::vector<std::uint64_t>(words.size(), 0));
}

TEST(BatchKernelTest, OverlayAndAgingSwapsMidRunStayIdentical) {
  const MultiplierNetlist m = build_column_bypass_multiplier(16);
  FaultOverlay overlay(m.netlist.num_gates());
  overlay.add({.kind = FaultKind::kStuckAt1,
               .gate = static_cast<GateId>(m.netlist.num_gates() / 2)});
  const BtiModel model = BtiModel::calibrated(test_tech());
  const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
  const auto aged = scenario.delay_scales_at(7.0);

  MultiplierSim scalar(m, test_tech());
  BatchTimingSim batch(m.netlist, test_tech());
  Rng rng(0xABCD);
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  const auto run_both = [&](int num_words) {
    for (int w = 0; w < num_words; ++w) {
      std::fill(words.begin(), words.end(), 0);
      std::vector<std::uint64_t> a_ops(kBatchLanes), b_ops(kBatchLanes);
      for (int l = 0; l < kBatchLanes; ++l) {
        a_ops[static_cast<std::size_t>(l)] = rng.next_bits(m.width);
        b_ops[static_cast<std::size_t>(l)] = rng.next_bits(m.width);
        load_bus_lane(words, a_ops[static_cast<std::size_t>(l)],
                            m.width, m.a_first_input, l);
        load_bus_lane(words, b_ops[static_cast<std::size_t>(l)],
                            m.width, m.b_first_input, l);
      }
      const std::span<const StepResult> res = batch.step_word(words);
      for (int l = 0; l < kBatchLanes; ++l) {
        const StepResult s = scalar.apply(a_ops[static_cast<std::size_t>(l)],
                                          b_ops[static_cast<std::size_t>(l)]);
        ASSERT_EQ(s.switched_cap_ff,
                  res[static_cast<std::size_t>(l)].switched_cap_ff);
        ASSERT_EQ(s.settle_ps, res[static_cast<std::size_t>(l)].settle_ps);
      }
      for (std::size_t n = 0; n < m.netlist.num_nets(); ++n) {
        const NetId net = static_cast<NetId>(n);
        ASSERT_EQ(scalar.timing_sim().value(net),
                  batch.lane_value(net, kBatchLanes - 1));
      }
    }
  };
  run_both(2);
  scalar.set_fault_overlay(&overlay);  // install mid-run...
  batch.set_fault_overlay(&overlay);
  run_both(2);
  scalar.set_aging(aged);  // ...age the circuit under the fault...
  batch.set_aging(aged);
  run_both(2);
  scalar.set_fault_overlay(nullptr);  // ...and release the overlay
  batch.set_fault_overlay(nullptr);
  run_both(2);
}

TEST(BatchKernelTest, TraceEqualityAcrossKernels) {
  // The layer above: compute_op_trace must emit the exact same OpTrace
  // vector whichever kernel runs it — plain, aged, and faulted.
  const std::size_t ops = 200;
  const BtiModel model = BtiModel::calibrated(test_tech());
  for (const auto arch :
       {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
        MultiplierArch::kRowBypass, MultiplierArch::kWallaceTree}) {
    SCOPED_TRACE(arch_name(arch));
    const MultiplierNetlist m = build_multiplier(arch, 16);
    Rng pattern_rng(0x7EA7);
    const auto patterns = uniform_patterns(pattern_rng, m.width, ops);
    const AgingScenario scenario(m.netlist, test_tech(), model, 0x26F1, 200);
    const auto aged = scenario.delay_scales_at(3.0);
    FaultOverlay overlay(m.netlist.num_gates());
    overlay.add({.kind = FaultKind::kStuckAt0,
                 .gate = static_cast<GateId>(m.netlist.num_gates() / 2)});
    overlay.add({.kind = FaultKind::kTransient,
                 .gate = static_cast<GateId>(m.netlist.num_gates() / 3),
                 .cycle = 70});

    const FaultOverlay* overlay_cases[] = {nullptr, &overlay};
    for (const FaultOverlay* faults : overlay_cases) {
      for (const std::span<const double> aging :
           {std::span<const double>{}, std::span<const double>(aged)}) {
        TraceOptions sparse_opts{.gate_delay_scale = aging,
                                 .faults = faults,
                                 .kernel = SimKernel::kSparse};
        TraceOptions dense_opts = sparse_opts;
        dense_opts.kernel = SimKernel::kDense;
        TraceOptions batch_opts = sparse_opts;
        batch_opts.kernel = SimKernel::kBatch;

        const auto sparse_trace =
            compute_op_trace(m, test_tech(), patterns, sparse_opts);
        const auto dense_trace =
            compute_op_trace(m, test_tech(), patterns, dense_opts);
        // The batch trace's word and lane counts, from the sim.batch.*
        // counters it records.
        const bool metrics_were_on = obs::metrics_enabled();
        obs::set_metrics_enabled(true);
        obs::reset_metrics();
        const auto batch_trace =
            compute_op_trace(m, test_tech(), patterns, batch_opts);
        std::uint64_t words = 0, lanes = 0;
        for (const obs::MetricValue& mv : obs::metrics_snapshot()) {
          if (mv.name == "sim.batch.words") words = mv.value;
          if (mv.name == "sim.batch.lanes") lanes = mv.value;
        }
        obs::set_metrics_enabled(metrics_were_on);
        ASSERT_EQ(sparse_trace, dense_trace);
        ASSERT_EQ(sparse_trace, batch_trace);
        EXPECT_EQ(lanes, ops);
        EXPECT_EQ(words, (ops + kBatchLanes - 1) / kBatchLanes);
      }
    }
  }
}

TEST(BatchKernelTest, KernelEnvResolution) {
  EXPECT_EQ(resolve_kernel(SimKernel::kDense), SimKernel::kDense);
  EXPECT_EQ(resolve_kernel(SimKernel::kBatch), SimKernel::kBatch);
  {
    ScopedEnv scoped("AGINGSIM_KERNEL", "batch");
    EXPECT_EQ(resolve_kernel(SimKernel::kAuto), SimKernel::kBatch);
    // Explicit requests beat the environment.
    EXPECT_EQ(resolve_kernel(SimKernel::kSparse), SimKernel::kSparse);
  }
  {
    ScopedEnv scoped("AGINGSIM_KERNEL", "dense");
    EXPECT_EQ(resolve_kernel(SimKernel::kAuto), SimKernel::kDense);
  }
  {
    ScopedEnv scoped("AGINGSIM_KERNEL", "sparse");
    EXPECT_EQ(resolve_kernel(SimKernel::kAuto), SimKernel::kSparse);
  }
  {
    ScopedEnv scoped("AGINGSIM_KERNEL", "turbo");  // warns once, falls back
    EXPECT_EQ(resolve_kernel(SimKernel::kAuto), SimKernel::kBatch);
  }
  {
    ScopedEnv scoped("AGINGSIM_KERNEL", nullptr);  // the default kernel
    EXPECT_EQ(resolve_kernel(SimKernel::kAuto), SimKernel::kBatch);
  }
}

TEST(BatchKernelTest, LaneBackendReportsAName) {
  const std::string backend = BatchTimingSim::lane_backend();
  EXPECT_TRUE(backend == "avx2" || backend == "generic") << backend;
}

}  // namespace
}  // namespace agingsim
