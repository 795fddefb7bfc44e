#pragma once

// Internal interface between BatchTimingSim (batch_sim.cpp) and the
// word-sweep core (batch_sweep.inl). The core is compiled twice: once with
// the library's baseline flags (run_sweep_generic) and once in a translation
// unit built with -mavx2 on x86-64 (run_sweep_avx2), so the per-lane
// density/arrival loops vectorize 8/4-wide. Dispatch between them is a
// one-time runtime CPU check in batch_sim.cpp; both backends execute the
// same source with the same IEEE semantics (-ffp-contract=off, no
// reassociation), so results are bit-identical either way.

#include <cstdint>
#include <span>
#include <utility>

#include "src/fault/fault.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/batch_sim.hpp"

namespace agingsim::detail {

/// BatchTimingSim::gate_flags_ layout. Bits 0-2: input pin k recomputes
/// its net's lanes (it is the first reader of a net fed only by primary
/// inputs). Bit 3: the gate's output has no slot at its driver (nobody
/// reads it, or its readers recompute it). Bits 4-6: input pin k is its
/// net's last reader; only slot planning reads them.
inline constexpr std::uint8_t kOutputUnstored = 1u << 3;
inline constexpr unsigned kReleasesPin = 1u << 4;

/// BatchTimingSim::slot_ codes: a slot index, -1 for a net nobody reads,
/// and -2 - i for primary input i (whose lanes are InputLanes i).
inline constexpr std::int32_t slot_of_input(std::size_t i) {
  return -2 - static_cast<std::int32_t>(i);
}
inline constexpr std::size_t input_of_slot(std::int32_t slot) {
  return static_cast<std::size_t>(-2 - slot);
}

/// Borrowed views of one BatchTimingSim's per-word state. Per-net arrays
/// are indexed by NetId, per-gate arrays by GateId.
struct SweepContext {
  const Netlist* netlist = nullptr;
  const TechLibrary* tech = nullptr;
  const FaultOverlay* overlay = nullptr;  // may be null
  const double* aging_scale = nullptr;    // per gate; null = fresh
  const std::uint8_t* gate_flags = nullptr;  // per gate
  const std::int32_t* slot = nullptr;        // per net: -1 = none
  NetLanes* planes = nullptr;                // per net, valid while moved
  std::uint8_t* moved = nullptr;             // per net: moved this word
  const Logic* carried = nullptr;            // per net: value before the word
  LaneSlot* slots = nullptr;
  InputLanes* inputs = nullptr;  // one per primary input
  std::int32_t sink = 0;  // write-only slot for outputs that have none
  StepResult* results = nullptr;              // kBatchLanes entries
  const std::uint64_t* input_bits = nullptr;  // one word per primary input
  int lanes = 0;
  std::uint64_t lane_mask = 0;
  bool force_all = false;
  /// Transient strikes falling inside this word, as (gate, lane mask)
  /// pairs sorted by gate id (masks pre-merged per gate).
  std::span<const std::pair<GateId, std::uint64_t>> transient_masks;
  /// Gates whose transient fired on the last lane of the previous word:
  /// they must be evaluated so lane 0 un-flips them (the batch analogue of
  /// the scalar transient-cleanup dense step). Sorted by gate id.
  std::span<const GateId> forced_gates;
  std::uint64_t gates_processed = 0;  // out: gates the sweep evaluated
};

void run_sweep_generic(SweepContext& ctx);

/// Real AVX2 code when the build and architecture allow (batch_sim_avx2.cpp
/// compiled with -mavx2); otherwise a forwarder to run_sweep_generic.
void run_sweep_avx2(SweepContext& ctx);
bool avx2_sweep_available() noexcept;

}  // namespace agingsim::detail
