#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/ahl.hpp"
#include "src/core/razor.hpp"
#include "src/fault/fault.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/power/power.hpp"
#include "src/sim/batch_sim.hpp"
#include "src/workload/patterns.hpp"
#include "src/workload/rng.hpp"

namespace agingsim {

/// Circuit-level record of one multiplier operation. The trace is
/// *policy-independent*: which paths a pattern transition exercises (and
/// therefore its delay and switched energy) does not depend on the cycle
/// period, the skip number or the AHL state — so one expensive gate-level
/// pass per (architecture, aging year) serves every point of the paper's
/// period/skip sweeps.
struct OpTrace {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t product = 0;      ///< product the netlist settled to
  std::uint64_t golden = 0;       ///< reference a*b (== product unless faulted)
  double delay_ps = 0.0;          ///< settled output delay of this transition
  double switched_cap_ff = 0.0;   ///< combinational switched capacitance
  int in_toggles = 0;             ///< operand bits that changed vs prev op
  int out_toggles = 0;            ///< product bits that changed vs prev op
  bool correct = true;            ///< product == golden
  bool fault_active = false;      ///< a fault overlay could affect this op

  friend bool operator==(const OpTrace&, const OpTrace&) = default;
};

/// Options for `compute_op_trace`.
struct TraceOptions {
  /// Per-gate aging delay overlay (empty = fresh circuit).
  std::span<const double> gate_delay_scale = {};
  /// Fault overlay injected for the whole trace (nullptr = fault-free). With
  /// faults installed, golden-check mismatches are *recorded* per op
  /// (`OpTrace::correct`) instead of thrown — wrong products are the very
  /// thing a fault campaign measures.
  const FaultOverlay* faults = nullptr;
  /// Step kernel. kAuto resolves through AGINGSIM_KERNEL (default: batch).
  /// Every kernel produces a bit-identical trace; kBatch packs 64 patterns
  /// per sweep (see src/sim/batch_sim.hpp) and is several times faster than
  /// the scalar reference kernels on high-activity streams.
  SimKernel kernel = SimKernel::kAuto;
  /// If non-null, receives the batch kernel's counters (words, lanes,
  /// gates evaluated) after a kBatch trace. Untouched by scalar runs.
  BatchStats* batch_stats = nullptr;
};

/// Runs the gate-level simulator over `patterns` and returns the per-op
/// trace. Every product is checked against the golden reference multiply;
/// without a fault overlay a mismatch throws std::logic_error carrying the
/// pattern index, operands and expected/actual products (the trace
/// generator doubles as an end-to-end correctness oracle).
std::vector<OpTrace> compute_op_trace(const MultiplierNetlist& mult,
                                      const TechLibrary& tech,
                                      std::span<const OperandPattern> patterns,
                                      const TraceOptions& options);

/// Back-compat convenience: aging overlay only, throwing golden check.
std::vector<OpTrace> compute_op_trace(
    const MultiplierNetlist& mult, const TechLibrary& tech,
    std::span<const OperandPattern> patterns,
    std::span<const double> gate_delay_scale = {});

/// Critical-path delay (ps) of the (optionally aged) multiplier — the cycle
/// period a fixed-latency design must budget.
double critical_path_ps(const MultiplierNetlist& mult, const TechLibrary& tech,
                        std::span<const double> gate_delay_scale = {});

/// Configuration of the complete proposed architecture (paper Fig. 8).
struct VlSystemConfig {
  double period_ps = 900.0;  ///< system cycle period
  AhlConfig ahl{};           ///< skip number, adaptivity, indicator window
  RazorConfig razor{};       ///< shadow window, re-exec penalty, escape model
  /// Seed for the Razor metastability-escape draws. Every `run()` restarts
  /// from this seed, so runs over identical traces are bit-reproducible.
  /// Irrelevant with the default ideal detector (metastability window 0).
  std::uint64_t razor_seed = 0xAC1D5EEDULL;
};

/// Aggregate results of running an operation stream through a system model.
struct RunStats {
  std::uint64_t ops = 0;
  std::uint64_t one_cycle_ops = 0;   ///< issued as one cycle by the AHL
  std::uint64_t two_cycle_ops = 0;   ///< issued as two cycles by the AHL
  std::uint64_t errors = 0;          ///< Razor-detected timing violations
  std::uint64_t undetected = 0;      ///< violations outside the shadow window
  /// In-window violations the error comparator missed (metastability escape
  /// — see RazorConfig::metastability_window_ps). Always 0 with the default
  /// ideal detector.
  std::uint64_t razor_escapes = 0;
  /// Operations that committed a wrong product (silent data corruption):
  /// functional faults Razor cannot see, plus undetected/escaped timing
  /// violations. The fault-free architectural contract keeps this at 0.
  std::uint64_t sdc_ops = 0;
  /// Fault-exposed operations that still committed the correct product with
  /// no Razor intervention (logically or architecturally masked faults).
  std::uint64_t masked_faults = 0;
  std::uint64_t total_cycles = 0;
  bool switched_to_second_block = false;

  /// Error-storm graceful degradation (AhlConfig::storm_fallback).
  std::uint64_t storm_engagements = 0;
  std::uint64_t storm_recoveries = 0;
  std::uint64_t storm_ops = 0;       ///< ops issued while the fallback held

  double period_ps = 0.0;
  double avg_cycles = 0.0;
  double avg_latency_ps = 0.0;
  double one_cycle_ratio = 0.0;
  /// Errors normalized to the paper's "error count in 10000 cycles" figures.
  double errors_per_10k_ops = 0.0;
  double sdc_per_10k_ops = 0.0;

  double total_energy_fj = 0.0;
  double comb_energy_fj = 0.0;
  double register_energy_fj = 0.0;
  double ahl_energy_fj = 0.0;
  double leakage_energy_fj = 0.0;
  double avg_power_mw = 0.0;
  double edp_mw_ns2 = 0.0;

  /// Exact field-wise equality — used by the thread-count determinism
  /// tests (N-thread sweeps must be byte-identical to serial ones).
  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// The proposed aging-aware variable-latency multiplier system: bypassing
/// multiplier + input registers with clock gating + AHL + Razor output bank
/// (paper Fig. 8). Judging operand selection follows the architecture:
/// multiplicand for column-bypassing, multiplicator for row-bypassing.
class VariableLatencySystem {
 public:
  VariableLatencySystem(const MultiplierNetlist& mult, const TechLibrary& tech,
                        VlSystemConfig config);

  /// One replay fed an operation at a time, for callers that produce the
  /// ops as they go instead of holding a whole trace. Starts from a reset
  /// AHL and the Razor seed; step() the ops in order, then finish().
  class Replay {
   public:
    explicit Replay(const VariableLatencySystem& system);

    void step(const OpTrace& op);

    /// The statistics of the ops stepped so far. `mean_dvth_v` is the
    /// average device Vth drift at the trace's aging point (drives
    /// leakage).
    RunStats finish(double mean_dvth_v = 0.0) const;

   private:
    const VariableLatencySystem* system_;
    AdaptiveHoldLogic ahl_;
    RazorBank razor_;
    Rng escape_rng_;
    RunStats stats_;
  };

  /// Replays a circuit trace through the architectural policy: one Replay
  /// stepped over every op. The AHL state is reset at the start of each run.
  RunStats run(std::span<const OpTrace> trace, double mean_dvth_v = 0.0);

  const VlSystemConfig& config() const noexcept { return config_; }

 private:
  const MultiplierNetlist* mult_;
  const TechLibrary* tech_;
  VlSystemConfig config_;
  PowerModel power_;
};

/// Fixed-latency baseline (AM / FLCB / FLRB): every operation takes one
/// cycle of length `period_ps` (the aged critical path — fixed designs must
/// guard-band for degradation, which is exactly the paper's point).
class FixedLatencySystem {
 public:
  FixedLatencySystem(const MultiplierNetlist& mult, const TechLibrary& tech);

  RunStats run(std::span<const OpTrace> trace, double period_ps,
               double mean_dvth_v = 0.0);

 private:
  const MultiplierNetlist* mult_;
  const TechLibrary* tech_;
  PowerModel power_;
};

}  // namespace agingsim
