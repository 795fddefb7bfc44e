#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/netlist/cell.hpp"

namespace agingsim {

/// Index of a net (wire) inside a Netlist.
using NetId = std::uint32_t;
/// Index of a gate inside a Netlist.
using GateId = std::uint32_t;

inline constexpr NetId kInvalidNet = static_cast<NetId>(-1);

/// One gate instance. Input nets live in the netlist's flat pin array
/// (`Netlist::gate_inputs`), keeping evaluation cache-friendly.
struct Gate {
  CellKind kind;
  NetId out;
  std::uint32_t in_begin;
  std::uint16_t in_count;
};

/// A combinational gate-level netlist.
///
/// Structural invariants, enforced at construction time:
///  - every net has exactly one driver (a primary input or a gate output);
///  - a gate's input nets must exist before the gate is added, so the gate
///    order is a topological order and the netlist is acyclic by
///    construction (`validate()` re-checks everything).
///
/// Sequential elements (input registers, Razor flip-flops) are *not* part of
/// the netlist: the paper's architecture (Fig. 8) wraps a purely
/// combinational multiplier in registers, and the system-level behaviour of
/// those registers is modelled in src/core/.
class Netlist {
 public:
  Netlist();
  Netlist(Netlist&&) noexcept = default;
  Netlist& operator=(Netlist&&) noexcept = default;
  /// Copies the structure; the derived fanout index is not shared and is
  /// rebuilt lazily in the copy.
  Netlist(const Netlist& other);
  Netlist& operator=(const Netlist& other);

  /// Creates a primary-input net.
  NetId add_input(std::string name);

  /// Creates a gate plus its output net; returns the output net.
  /// Throws std::invalid_argument on bad pin count or unknown input net.
  NetId add_gate(CellKind kind, std::span<const NetId> inputs);
  NetId add_gate(CellKind kind, std::initializer_list<NetId> inputs) {
    return add_gate(kind, std::span<const NetId>(inputs.begin(), inputs.size()));
  }

  /// Registers a net as a primary output. A net may be registered only once.
  void mark_output(NetId net, std::string name);

  std::size_t num_nets() const noexcept { return driver_.size(); }
  std::size_t num_gates() const noexcept { return gates_.size(); }
  std::size_t num_inputs() const noexcept { return input_nets_.size(); }
  std::size_t num_outputs() const noexcept { return output_nets_.size(); }
  /// Size of the flat gate-input pin array. The lint rules bounds-check
  /// gate pin windows against this before dereferencing them, so corrupted
  /// structures are reported instead of read out of bounds.
  std::size_t num_pins() const noexcept { return pins_.size(); }

  const Gate& gate(GateId g) const noexcept { return gates_[g]; }
  std::span<const NetId> gate_inputs(GateId g) const noexcept {
    const Gate& gt = gates_[g];
    return {pins_.data() + gt.in_begin, gt.in_count};
  }

  std::span<const NetId> input_nets() const noexcept { return input_nets_; }
  std::span<const NetId> output_nets() const noexcept { return output_nets_; }
  const std::string& input_name(std::size_t i) const { return input_names_[i]; }
  const std::string& output_name(std::size_t i) const {
    return output_names_[i];
  }

  /// Driving gate of `net`, or -1 if `net` is a primary input.
  std::int32_t driver_of(NetId net) const noexcept { return driver_[net]; }

  /// Gates that read `net` (its consumers), in ascending gate-id order.
  /// Backed by a CSR index over the flat pin array, built lazily on first
  /// access (thread-safe: concurrent readers of a non-mutating netlist may
  /// race to trigger the build) and invalidated by add_input/add_gate. A
  /// gate listing the same net on several pins appears once per pin.
  std::span<const GateId> fanout(NetId net) const;

  /// Raw CSR view of the whole fanout index: consumers of net `n` are
  /// `consumers[begin[n]] .. consumers[begin[n+1]]`. One `ensure_index`
  /// per call, so hot loops (the event-driven simulator kernel) grab a view
  /// once per step instead of paying the lazy-init check per net. The view
  /// is invalidated by add_input/add_gate, like any span into the netlist.
  struct FanoutView {
    const std::uint32_t* begin = nullptr;
    const GateId* consumers = nullptr;
  };
  FanoutView fanout_view() const;

  /// Topological level of gate `g`: 0 when every input is a primary input,
  /// otherwise 1 + the maximum level of its driving gates. Gate ids are
  /// themselves a topological order refining these levels (a driver's id is
  /// always smaller than its consumers'), which is what the event-driven
  /// simulator kernel relies on.
  int level(GateId g) const;

  /// Number of distinct levels (max level + 1); 0 for a gate-free netlist.
  int depth() const;

  /// Total transistor count (the paper's area metric, Fig. 25).
  std::int64_t transistor_count() const noexcept;

  /// Number of gates of each kind (diagnostics and area breakdowns).
  std::vector<std::size_t> gate_count_by_kind() const;

  /// Full structural re-check, delegated to the lint subsystem's
  /// structural rule family (src/lint/structural.hpp). Throws one
  /// std::logic_error aggregating *every* error-severity diagnostic (pin
  /// arity, driver-table consistency, topological order, dangling or
  /// duplicate outputs, ...), each carrying gate/net names. Warnings (dead
  /// logic, aliased bypass pins) do not throw — run lint::run for the
  /// full report.
  void validate() const;

 private:
  /// Test-only structural surgery (tests/ and the lint fuzzers); see
  /// src/netlist/surgeon.hpp.
  friend class NetlistSurgeon;
  /// Per-net consumer lists (CSR over pins_) plus per-gate topological
  /// levels. Derived data: rebuilt on demand after structural edits.
  struct FanoutIndex {
    std::vector<std::uint32_t> begin;  // size num_nets() + 1
    std::vector<GateId> consumers;     // size pins_.size()
    std::vector<std::int32_t> level;   // per gate
    int depth = 0;
  };

  void ensure_index() const;
  void build_index() const;
  void invalidate_index();

  std::vector<Gate> gates_;
  std::vector<NetId> pins_;           // flat gate-input array
  std::vector<std::int32_t> driver_;  // per net: gate index or -1 (PI)
  std::vector<NetId> input_nets_;
  std::vector<NetId> output_nets_;
  std::vector<std::string> input_names_;
  std::vector<std::string> output_names_;

  // Lazily built derived index. The once_flag lives behind a unique_ptr so
  // the netlist stays movable; invalidation swaps in a fresh flag.
  mutable FanoutIndex index_;
  mutable std::unique_ptr<std::once_flag> index_once_;
  mutable bool index_built_ = false;
};

}  // namespace agingsim
