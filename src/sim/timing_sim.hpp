#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/fault/fault.hpp"
#include "src/netlist/logic.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"

namespace agingsim {

/// Step-kernel families the trace/campaign/serving layers can drive. The
/// scalar kernels live in TimingSim (Mode::kDense / Mode::kSparse) and are
/// the reference kernels; kBatch selects the 64-lane SWAR kernel in
/// src/sim/batch_sim.hpp, the default. All three are bit-identical on every
/// guaranteed StepResult/OpTrace field; they differ only in throughput and
/// in the gates_evaluated diagnostic.
enum class SimKernel : std::uint8_t { kAuto = 0, kDense, kSparse, kBatch };

/// Resolves kAuto against AGINGSIM_KERNEL (dense|sparse|batch; unset means
/// batch, and an unrecognized value warns once and falls back to batch).
/// Non-auto values pass through untouched.
SimKernel resolve_kernel(SimKernel requested);

const char* kernel_name(SimKernel kernel) noexcept;

/// Whether a `width`-bit bus starting at primary input `first_input` fits
/// in `inputs` inputs and in one 64-bit value (load_bus' range check).
bool bus_fits(int first_input, int width, std::size_t inputs) noexcept;

/// Writes an unsigned value onto an input bus laid out LSB-first from
/// index `first_input` of `pattern_buffer`. Throws std::invalid_argument
/// when the bus does not fit the buffer (bus_fits).
void load_bus(std::span<Logic> pattern_buffer, std::uint64_t value, int width,
              int first_input);

/// Outcome of applying one input pattern.
struct StepResult {
  /// Time (ps) at which the last *primary output* settles, i.e. the path
  /// delay of this operation. 0 if no output changed. This is the quantity
  /// the Razor flip-flops compare against the cycle period.
  double output_settle_ps = 0.0;
  /// Time (ps) at which the last net anywhere settles (>= output_settle_ps).
  double settle_ps = 0.0;
  /// Number of gate outputs that settled to a new value (0<->1).
  std::uint64_t toggles = 0;
  /// Effective switched capacitance (fF) of this transition, including the
  /// glitch estimate — drives the dynamic-energy model. Computed by
  /// transition-density propagation (Najm-style): every changed primary
  /// input seeds one transition, each gate passes its inputs' densities
  /// weighted by how often the other inputs let edges through, and XOR
  /// trees sum densities. This is what makes deep carry-save arrays (the
  /// plain AM) expensive and frozen bypassed columns free, reproducing the
  /// paper's power ordering (AM > VL-bypassing > FL-bypassing).
  double switched_cap_ff = 0.0;
  /// Gates the kernel actually evaluated this step. The dense kernel always
  /// evaluates every gate; the sparse kernel only the changed/glitching
  /// cone, so gates_evaluated / gates_total is the per-step activity factor
  /// benches report. Diagnostics only: these two fields are kernel-dependent
  /// and excluded from the dense/sparse equivalence guarantee.
  std::uint64_t gates_evaluated = 0;
  /// Total gates in the netlist (the denominator for gates_evaluated).
  std::uint64_t gates_total = 0;
};

/// Per-pattern functional + timing simulator.
///
/// This is the substitute for the paper's Nanosim transistor-level timing
/// runs. Each `step()` applies a new input pattern (a transition from the
/// previously applied one) and settles the netlist in one topological pass —
/// event-driven over the changed cone by default (Mode::kSparse), or over
/// every gate (Mode::kDense) — computing, for every evaluated gate, the new
/// output value and its *sensitized* arrival time:
///
///  - a net whose value does not change is stable and contributes neither
///    delay nor switching energy (transition pruning, zero-delay/glitch-free
///    activity model);
///  - when a gate's output settles to a value fixed by a controlling input
///    (0 on an AND, 1 on an OR, ...), the arrival is the *earliest*
///    controlling input, not the latest input — this short-circuit is what
///    makes bypassed columns/rows fast and is the physical mechanism behind
///    the paper's Figs. 5-6 delay distributions;
///  - disabled tri-state buffers hold their previous value (bus keeper), so
///    a bypassed full adder neither toggles nor delays anything.
class TimingSim {
 public:
  /// Step-kernel selection. Both kernels produce bit-identical results
  /// (StepResult timing/energy fields, net values, arrivals, densities);
  /// they differ only in cost and in the gates_evaluated diagnostic.
  ///
  ///  - kSparse (this class's default): event-driven. A step seeds a worklist with the
  ///    consumers of changed primary inputs and propagates only through the
  ///    cone whose values or transition densities actually move, processing
  ///    gates in ascending gate-id order (a topological order that also
  ///    matches the dense kernel's floating-point accumulation order — this
  ///    is what makes the two kernels bit-identical, not just equivalent).
  ///    Power-up, transient-fault windows and overlay/aging swaps fall back
  ///    to one dense sweep; see docs/PERF.md.
  ///  - kDense: the original full topological sweep over every gate. Kept
  ///    for differential testing and as the fallback path.
  enum class Mode { kSparse, kDense };

  /// `gate_delay_scale`, if non-empty, is a per-gate delay multiplier (aging
  /// overlay); it is copied and can be replaced later with `set_aging()`.
  TimingSim(const Netlist& netlist, const TechLibrary& tech,
            std::span<const double> gate_delay_scale = {});

  void set_mode(Mode mode) noexcept { mode_ = mode; }
  Mode mode() const noexcept { return mode_; }

  /// Replaces the per-gate aging multipliers (empty = fresh circuit).
  void set_aging(std::span<const double> gate_delay_scale);

  /// Installs (or, with nullptr, removes) a fault overlay. The overlay is
  /// consulted during every subsequent `step()`: stuck-at faults force the
  /// affected gate outputs, transients invert them on their armed cycle
  /// (matched against `steps()`), and delay-outlier factors are folded into
  /// the per-gate delays on top of the aging overlay. The shared netlist is
  /// never mutated, so many simulators with different overlays can run over
  /// one netlist concurrently. The overlay must outlive its installation.
  /// Throws std::invalid_argument if the overlay was sized for a different
  /// netlist.
  void set_fault_overlay(const FaultOverlay* overlay);
  const FaultOverlay* fault_overlay() const noexcept { return overlay_; }

  /// Number of `step()` calls performed so far — the cycle count transient
  /// faults are matched against.
  std::int64_t steps() const noexcept { return step_index_; }

  /// Applies `input_values` (one per primary input, in input order) and
  /// settles the netlist. The first call establishes the power-up state (all
  /// nets transition from X); its timing numbers are still well defined.
  StepResult step(std::span<const Logic> input_values);

  Logic value(NetId net) const noexcept { return value_[net]; }
  double arrival(NetId net) const noexcept { return arrival_[net]; }

  /// Packs the primary outputs LSB-first into an integer. Throws
  /// std::logic_error if any output is X/Z or there are more than 64 outputs.
  std::uint64_t output_bits() const;

  const Netlist& netlist() const noexcept { return *netlist_; }

 private:
  void rebuild_delays();

  /// Evaluates one gate: value, glitch density, arrival, energy. Returns
  /// true when the gate's output is "active" this step (value changed or
  /// nonzero density) and its consumers therefore need evaluating. The
  /// overlay/transient checks are template parameters so the per-step
  /// drivers branch once, not once per gate.
  template <bool kOverlay, bool kTransient>
  bool evaluate_gate(GateId g, StepResult& result);

  template <bool kOverlay, bool kTransient>
  void run_dense(StepResult& result);
  template <bool kOverlay>
  void run_sparse(StepResult& result);

  /// Adds gate `g` to the sparse worklist (idempotent: one bit per gate).
  void enqueue(GateId g) {
    const std::size_t w = g >> 6;
    queued_words_[w] |= std::uint64_t{1} << (g & 63);
    if (w < queued_min_word_) queued_min_word_ = w;
    if (w > queued_max_word_) queued_max_word_ = w;
  }

  /// Epoch-gated reads of the per-step state: a net not stamped with the
  /// current epoch is stable this step (changed = false, density = 0) — no
  /// O(nets) clearing between steps.
  bool net_changed(NetId n) const noexcept {
    return net_epoch_[n] == epoch_ && changed_[n] != 0;
  }
  float net_density(NetId n) const noexcept {
    return net_epoch_[n] == epoch_ ? density_[n] : 0.0f;
  }

  const Netlist* netlist_;
  const TechLibrary* tech_;
  const FaultOverlay* overlay_ = nullptr;
  std::int64_t step_index_ = 0;
  Mode mode_ = Mode::kSparse;
  /// Next step must be a dense sweep: set at power-up and whenever the
  /// overlay or aging multipliers are swapped (a stuck-at can force a gate
  /// whose fanin never changes, which no worklist would reach).
  bool force_dense_ = true;
  std::uint64_t epoch_ = 0;            // current step's stamp
  std::vector<double> aging_scale_;    // per gate (possibly empty)
  std::vector<double> base_delay_ps_;  // per gate, aging + faults folded in
  std::vector<double> cell_cap_ff_;    // per gate
  std::vector<Logic> value_;           // per net
  std::vector<double> arrival_;        // per net, valid when changed this step
  std::vector<std::uint8_t> changed_;  // per net, valid at net_epoch_ == epoch_
  std::vector<float> density_;         // per net, valid at net_epoch_ == epoch_
  std::vector<std::uint64_t> net_epoch_;  // per net: last stamping step
  /// Sparse worklist: one bit per gate, popped lowest-id-first and cleared
  /// as processed, so the bitmap is all-zero between steps (no epoch or
  /// clearing pass needed). queued_*_word_ bound the live word range.
  std::vector<std::uint64_t> queued_words_;
  std::size_t queued_min_word_ = 0;
  std::size_t queued_max_word_ = 0;
};

}  // namespace agingsim
