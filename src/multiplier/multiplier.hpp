#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/patterns.hpp"

namespace agingsim {

/// The three multiplier architectures the paper evaluates (Figs. 1-3) plus
/// a Wallace tree (library extension used as a latency-optimized fixed
/// baseline in the ablation studies).
enum class MultiplierArch {
  kArray,         ///< Normal array multiplier (AM), Fig. 1.
  kColumnBypass,  ///< Column-bypassing multiplier [22], Fig. 2.
  kRowBypass,     ///< Row-bypassing multiplier [23], Fig. 3.
  kWallaceTree,   ///< Wallace-tree multiplier (extension, no bypassing).
};

const char* arch_name(MultiplierArch arch) noexcept;

/// The architecture a CLI flag or a request names: am, cb, rb, wt (the
/// lower-case arch_name) or array, column, row, wallace; nullopt for
/// anything else.
std::optional<MultiplierArch> parse_arch(std::string_view name);

/// True when the bypass select lines (and therefore the AHL judging input,
/// Fig. 12) come from the multiplicand; false when they come from the
/// multiplicator. Column bypassing selects on multiplicand bits a_j, row
/// bypassing on multiplicator bits b_i.
bool judges_on_multiplicand(MultiplierArch arch) noexcept;

/// A generated combinational multiplier netlist plus its I/O layout.
///
/// Primary inputs: a[0..width) (multiplicand) at PI indices
/// [a_first_input, a_first_input+width), then b[0..width) (multiplicator).
/// Primary outputs: p[0..2*width), LSB first.
struct MultiplierNetlist {
  Netlist netlist;
  MultiplierArch arch;
  int width;
  int a_first_input;
  int b_first_input;
};

/// Builds an n x n normal array multiplier: (n-1) carry-save rows plus a
/// ripple row (paper Fig. 1). width must be in [2, 32].
MultiplierNetlist build_array_multiplier(int width);

/// Builds an n x n column-bypassing multiplier: each CSA full adder gains
/// two tri-state input gates, a sum bypass MUX and a carry-kill AND, all
/// selected by multiplicand bit a_j (paper Fig. 2).
MultiplierNetlist build_column_bypass_multiplier(int width);

/// Builds an n x n row-bypassing multiplier: each CSA full adder gains
/// tri-state input gates plus sum and carry bypass MUXes selected by
/// multiplicator bit b_i (paper Fig. 3).
MultiplierNetlist build_row_bypass_multiplier(int width);

/// Builds an n x n Wallace-tree multiplier (extension): column-wise
/// carry-save reduction to depth O(log n), then a final ripple adder.
MultiplierNetlist build_wallace_tree_multiplier(int width);

/// Dispatcher over the three builders.
MultiplierNetlist build_multiplier(MultiplierArch arch, int width);

/// Golden reference: the product the netlist must compute.
std::uint64_t reference_multiply(std::uint64_t a, std::uint64_t b, int width);

/// Packs `patterns` (at most kBatchLanes) into lanes [0, patterns.size())
/// of `words`, one word per primary input, as a word kernel's step_word
/// takes them; the lanes above are 0. Throws std::invalid_argument, like
/// load_bus_lane, on more patterns or a bus that does not fit `words`.
void load_word(std::span<std::uint64_t> words, const MultiplierNetlist& mult,
               std::span<const OperandPattern> patterns);

/// Convenience harness: a TimingSim bound to a multiplier with an
/// operand-level API. One `apply()` models one operand transition latched by
/// the input registers of the paper's Fig. 8 architecture.
class MultiplierSim {
 public:
  MultiplierSim(const MultiplierNetlist& mult, const TechLibrary& tech,
                std::span<const double> gate_delay_scale = {});

  /// Applies operands and settles; returns the timing/energy of the
  /// transition. `StepResult::output_settle_ps` is this operation's path
  /// delay — the quantity Razor compares with the cycle period.
  StepResult apply(std::uint64_t a, std::uint64_t b);

  /// Product after the last apply().
  std::uint64_t product() const { return sim_.output_bits(); }

  void set_aging(std::span<const double> gate_delay_scale) {
    sim_.set_aging(gate_delay_scale);
  }

  /// Selects the step kernel (sparse event-driven vs dense sweep); see
  /// TimingSim::Mode. Results are bit-identical either way.
  void set_mode(TimingSim::Mode mode) noexcept { sim_.set_mode(mode); }

  /// Installs (nullptr: removes) a fault overlay on the underlying
  /// simulator; see TimingSim::set_fault_overlay.
  void set_fault_overlay(const FaultOverlay* overlay) {
    sim_.set_fault_overlay(overlay);
  }

  const MultiplierNetlist& multiplier() const noexcept { return *mult_; }
  TimingSim& timing_sim() noexcept { return sim_; }

 private:
  const MultiplierNetlist* mult_;
  TimingSim sim_;
  std::vector<Logic> pattern_;
};

}  // namespace agingsim
