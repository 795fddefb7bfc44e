#pragma once

// 64-lane SWAR batch timing kernel, the default step kernel (docs/PERF.md
// "Batch kernel").
//
// One BatchTimingSim consumes patterns 64 at a time ("one word"): lane l of
// every per-net machine word holds the value that net settles to on the
// l-th pattern of the word. A single ascending-gate-id sweep (gate ids are
// a topological order, the same order both scalar kernels use) evaluates a
// whole word: values move as two bit-planes per net (the 2-bit Logic code:
// plane0 = value bit, plane1 = unknown bit), so AND/OR/NAND/XOR/MUX over
// all 64 lanes cost a handful of word ops. A gate whose fanin word shows no
// activity in any lane is skipped outright — the word-granular analogue of
// the sparse kernel's worklist.
//
// Timing and energy are NOT approximated. The scalar kernel's sensitized-
// arrival and transition-density recurrences use only selects, min/max, and
// one multiply-add chain per gate — so the batch kernel carries an exact
// float[64] density lane array and double[64] arrival lane array per live
// net and replays the *same per-lane operation order* the scalar kernel
// uses. min/max/select are rounding-free and the mul/add chains are
// evaluated in the identical order (the build compiles with
// -ffp-contract=off so no kernel gains a fused multiply-add the other
// lacks), hence every StepResult field, net value, arrival and density is
// exactly `==` the scalar sparse/dense kernels' — the same guarantee PR 2
// proved for sparse-vs-dense, extended lane-wise.
// tests/batch_kernel_test.cpp is the differential suite.
//
// Lane state follows the live nets, not the netlist. Each net keeps its
// two value planes and a moved flag; density and arrival lanes live in
// live-range slots, as CornerTimingSim's arrivals do. A gate-driven net
// holds a slot from its driver to its last reader (a primary output: to
// the end of the word). A gate fed only by primary inputs stores nothing
// at its driver: its first reader recomputes its lanes from the
// primary-input lanes into a slot that lives until its last reader, so
// the width² partial-product ANDs the multiplier generators build up front
// are never live all at once. Primary inputs need no slot: each one's
// lanes are computed once per word for all of its readers.
//
// Fault overlays keep scalar semantics: stuck-ats force both planes
// unconditionally, transients invert exactly the lane whose global step
// index matches the armed cycle (X stays X), and delay outliers scale the
// gate's delay. Overlay/aging swaps force the next word to evaluate every
// gate, mirroring the scalar force-dense sweep.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/netlist/logic.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/timing_sim.hpp"

namespace agingsim {

/// Lanes per word. The SWAR baseline packs 64 patterns per uint64_t; the
/// AVX2 backend (runtime-dispatched, see batch_sim.cpp) vectorizes the
/// per-lane density/arrival recurrences over the same 64-lane words.
inline constexpr int kBatchLanes = 64;

/// Cumulative counters for one BatchTimingSim (mirrored into the process
/// sim.batch.* metrics when obs is enabled).
struct BatchStats {
  std::uint64_t words = 0;            ///< words swept
  std::uint64_t lanes = 0;            ///< patterns simulated
  std::uint64_t gates_evaluated = 0;  ///< word-granular union-cone evals
};

namespace detail {

/// One net's value planes in the word that last moved it. Its change mask
/// is not stored: the planes and the value carried into the word give it
/// (lane_edges in word_eval.hpp).
struct NetLanes {
  std::uint64_t p0 = 0;  ///< value bit per lane
  std::uint64_t p1 = 0;  ///< unknown bit per lane
};

/// Per-lane transition densities and arrivals of one live net.
struct alignas(64) LaneSlot {
  float density[kBatchLanes];
  double arrival[kBatchLanes];
};

/// One primary input's lanes in the current word, computed once for every
/// gate that reads it (its arrival is 0 in every lane).
struct alignas(64) InputLanes {
  float density[kBatchLanes];
  /// Pass weight toward a gate whose controlling value is Zero ([0]) or
  /// One ([1]).
  float pass[2][kBatchLanes];
};

/// Zero-filled pages mapped for one owner and unmapped when it goes, so
/// memory that short-lived owners use on long-lived threads goes back to
/// the system instead of fragmenting those threads' heaps.
class MappedPages {
 public:
  MappedPages() = default;
  /// Throws std::bad_alloc when the mapping fails.
  explicit MappedPages(std::size_t bytes);
  MappedPages(const MappedPages&) = delete;
  MappedPages& operator=(const MappedPages&) = delete;
  /// Swaps, so the pages this owner held go with `other`.
  MappedPages& operator=(MappedPages&& other) noexcept;
  ~MappedPages();

  std::byte* data() const noexcept { return data_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace detail

class BatchTimingSim {
 public:
  /// `gate_delay_scale`, if non-empty, is the per-gate aging multiplier
  /// table, as for TimingSim — but borrowed, not copied: like a fault
  /// overlay it must outlive its use here.
  BatchTimingSim(const Netlist& netlist, const TechLibrary& tech,
                 std::span<const double> gate_delay_scale = {});

  /// Replaces the aging multipliers (borrowed, as above); the next word
  /// re-evaluates every gate (the analogue of the scalar forced dense
  /// sweep).
  void set_aging(std::span<const double> gate_delay_scale);

  /// Installs (nullptr: removes) a fault overlay; scalar semantics, see
  /// TimingSim::set_fault_overlay. The overlay must outlive its use here.
  void set_fault_overlay(const FaultOverlay* overlay);
  const FaultOverlay* fault_overlay() const noexcept { return overlay_; }

  /// Patterns consumed so far — the global step index transient-fault
  /// cycles are matched against (lane l of the next word is step
  /// steps() + l).
  std::int64_t steps() const noexcept { return step_base_; }

  /// Evaluates lanes [0, lanes) in one sweep. `input_bits` holds one word
  /// per primary input (in input order): bit l is the value that input
  /// takes on lane l. All input lanes are known 0/1 — operands come from
  /// registers, exactly like load_bus patterns. Returns one
  /// StepResult per lane, each exactly what the corresponding scalar
  /// step() would have returned; the span is valid until the next call.
  /// A word always costs a full 64-lane sweep, however few lanes it uses.
  std::span<const StepResult> step_word(
      std::span<const std::uint64_t> input_bits, int lanes = kBatchLanes);

  /// Value of `net` as it stood after lane `lane` of the last word.
  Logic lane_value(NetId net, int lane) const;

  /// Primary outputs of lane `lane` of the last word, packed LSB-first.
  /// Throws std::logic_error like TimingSim::output_bits on X/Z outputs.
  std::uint64_t output_bits(int lane) const;

  /// Packs an unsigned value's bit `i` into `input_bits[first_input + i]`
  /// at lane `lane` (the word analogue of load_bus). Throws
  /// std::invalid_argument on a lane outside [0, 64) or a bus outside the
  /// primary inputs.
  void load_bus_lane(std::span<std::uint64_t> input_bits, std::uint64_t value,
                     int width, int first_input, int lane) const;

  const BatchStats& stats() const noexcept { return stats_; }
  const Netlist& netlist() const noexcept { return *netlist_; }

  /// Density/arrival slots the live-range layout needs: the peak number of
  /// simultaneously live nets that carry lanes.
  std::size_t num_slots() const noexcept { return slots_.size() - 1; }

  /// Name of the lane-loop backend selected at runtime ("avx2" when the CPU
  /// supports it and the build carries the AVX2 translation unit, else
  /// "generic"). Both produce bit-identical results; dispatch is per
  /// process, decided once.
  static const char* lane_backend() noexcept;

 private:
  const Netlist* netlist_;
  const TechLibrary* tech_;
  const FaultOverlay* overlay_ = nullptr;
  std::span<const double> aging_scale_;  // per gate, borrowed; may be empty
  std::int64_t step_base_ = 0;  ///< global step index of lane 0 of next word
  bool force_all_ = true;       ///< next word evaluates every gate
  int last_lanes_ = 0;          ///< lanes of the most recent word

  /// Pages of the per-gate and per-net arrays below, and of the lane slots
  /// and input lanes (see the constructor).
  detail::MappedPages state_pages_;
  detail::MappedPages slot_pages_;
  std::span<detail::NetLanes> planes_;  // per net, valid while moved
  std::span<std::int32_t> slot_;  // per net, codes in batch_sweep.hpp
  std::span<std::uint8_t> gate_flags_;  // per gate, see batch_sweep.hpp
  /// Per net: 1 when the last word moved the net (changed it, or left
  /// nonzero density, in some lane). A net that did not move holds its
  /// carried value in every lane and has zero density.
  std::span<std::uint8_t> moved_;
  /// Per net: the value the last word started from. A moved net is brought
  /// forward to its final lane when the next word starts.
  std::span<Logic> carried_;
  std::span<detail::InputLanes> inputs_;  // per primary input
  std::span<detail::LaneSlot> slots_;     // live-range slots, then a sink

  std::array<StepResult, kBatchLanes> results_{};
  BatchStats stats_;
};

}  // namespace agingsim
