#include "src/sim/batch_sim.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <utility>

#include "src/netlist/cell.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/batch_sweep.hpp"
#include "src/sim/density_model.hpp"
#include "src/sim/word_eval.hpp"

namespace agingsim {
namespace detail {

#define AGINGSIM_SWEEP_FN run_sweep_generic
#include "src/sim/batch_sweep.inl"
#undef AGINGSIM_SWEEP_FN

MappedPages::MappedPages(std::size_t bytes) : bytes_(bytes) {
  if (bytes == 0) return;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = static_cast<std::byte*>(p);
}

MappedPages& MappedPages::operator=(MappedPages&& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(bytes_, other.bytes_);
  return *this;
}

MappedPages::~MappedPages() {
  if (data_ != nullptr) ::munmap(data_, bytes_);
}

}  // namespace detail

namespace {

// Accumulated per word, never per gate (same discipline as the scalar
// kernel's SimMetrics).
struct BatchMetrics {
  const obs::Counter& words = obs::counter("sim.batch.words");
  const obs::Counter& lanes = obs::counter("sim.batch.lanes");
  const obs::Counter& gates = obs::counter("sim.batch.gates_evaluated");
};

const BatchMetrics& batch_metrics() {
  static const BatchMetrics m;
  return m;
}

/// A free slot, or a new one.
std::int32_t take_slot(std::int32_t& slots,
                       std::vector<std::int32_t>& free_slots) {
  if (free_slots.empty()) return slots++;
  const std::int32_t s = free_slots.back();
  free_slots.pop_back();
  return s;
}

bool use_avx2_sweep() {
  static const bool enabled = [] {
    if (!detail::avx2_sweep_available()) return false;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return enabled;
}

}  // namespace

BatchTimingSim::BatchTimingSim(const Netlist& netlist, const TechLibrary& tech,
                               std::span<const double> gate_delay_scale)
    : netlist_(&netlist), tech_(&tech) {
  const std::size_t gates = netlist.num_gates();
  const std::size_t nets = netlist.num_nets();
  // The per-net and per-gate arrays share one mapping, widest elements
  // first so each stays aligned; the lane slots and input lanes share a
  // second once planned. A simulator is typically built for one trace on a
  // pool thread: mapped, its state goes back to the system with it instead
  // of leaving holes in the thread's heap.
  static_assert(sizeof(detail::LaneSlot) % alignof(detail::InputLanes) == 0);
  state_pages_ = detail::MappedPages(nets * sizeof(detail::NetLanes) +
                                     nets * sizeof(std::int32_t) + gates +
                                     2 * nets);
  std::byte* next = state_pages_.data();
  const auto carve = [&next]<typename T>(std::size_t n, const T& fill) {
    T* first = reinterpret_cast<T*>(next);
    std::uninitialized_fill_n(first, n, fill);
    next += n * sizeof(T);
    return std::span<T>(first, n);
  };
  planes_ = carve(nets, detail::NetLanes{});
  slot_ = carve(nets, std::int32_t{-1});
  gate_flags_ = carve(gates, std::uint8_t{0});
  moved_ = carve(nets, std::uint8_t{0});
  carried_ = carve(nets, Logic::kX);  // power-up: nothing driven yet
  set_aging(gate_delay_scale);

  // Live ranges in the ascending-id sweep. A gate-driven net holds a slot
  // from its driver to its last reader; a primary output holds it to the
  // end of the word, where the output settle reads it. A net fed only by
  // primary inputs that is not an output is stored by nobody at its driver:
  // its first reader recomputes it into a slot that lives from there to its
  // last reader. A gate takes its slots before its dying inputs release
  // theirs, so it never writes a slot it reads.
  //
  // A reverse pass finds each net's last reader (the first one it meets)
  // and the outputs nobody stores, with slot_ marking what it has seen, so
  // the plan needs no per-net scratch.
  constexpr std::int32_t kUnseen = -1;
  constexpr std::int32_t kOutput = -2;
  constexpr std::int32_t kRead = -3;
  for (const NetId out : netlist.output_nets()) slot_[out] = kOutput;
  for (GateId g = static_cast<GateId>(gates); g-- > 0;) {
    const auto ins = netlist.gate_inputs(g);
    bool pi_fed = true;
    for (const NetId in : ins) pi_fed = pi_fed && netlist.driver_of(in) < 0;
    const std::int32_t out = slot_[netlist.gate(g).out];
    if (out == kUnseen || (out == kRead && pi_fed)) {
      gate_flags_[g] |= detail::kOutputUnstored;
    }
    for (std::size_t k = 0; k < ins.size(); ++k) {
      if (slot_[ins[k]] != kUnseen) continue;
      slot_[ins[k]] = kRead;
      gate_flags_[g] |= static_cast<std::uint8_t>(detail::kReleasesPin << k);
    }
  }

  std::fill(slot_.begin(), slot_.end(), -1);
  std::int32_t slots = 0;
  std::vector<std::int32_t> free_slots;
  for (GateId g = 0; g < gates; ++g) {
    const auto ins = netlist.gate_inputs(g);
    for (std::size_t k = 0; k < ins.size(); ++k) {
      const std::int32_t driver = netlist.driver_of(ins[k]);
      if (driver < 0 || slot_[ins[k]] >= 0 ||
          (gate_flags_[driver] & detail::kOutputUnstored) == 0) {
        continue;
      }
      slot_[ins[k]] = take_slot(slots, free_slots);  // its first reader
      gate_flags_[g] |= static_cast<std::uint8_t>(1u << k);
    }
    if ((gate_flags_[g] & detail::kOutputUnstored) == 0) {
      slot_[netlist.gate(g).out] = take_slot(slots, free_slots);
    }
    for (std::size_t k = 0; k < ins.size(); ++k) {
      const bool last_reader =
          (gate_flags_[g] & (detail::kReleasesPin << k)) != 0;
      if (last_reader && slot_[ins[k]] >= 0) {
        free_slots.push_back(slot_[ins[k]]);
      }
    }
  }
  const auto with_sink = static_cast<std::size_t>(slots) + 1;
  slot_pages_ =
      detail::MappedPages(with_sink * sizeof(detail::LaneSlot) +
                          netlist.num_inputs() * sizeof(detail::InputLanes));
  next = slot_pages_.data();
  slots_ = carve(with_sink, detail::LaneSlot{});
  inputs_ = carve(netlist.num_inputs(), detail::InputLanes{});
  const auto input_nets = netlist.input_nets();
  for (std::size_t i = 0; i < input_nets.size(); ++i) {
    slot_[input_nets[i]] = detail::slot_of_input(i);
  }
}

void BatchTimingSim::set_aging(std::span<const double> gate_delay_scale) {
  if (!gate_delay_scale.empty() &&
      gate_delay_scale.size() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "BatchTimingSim::set_aging: need one multiplier per gate");
  }
  aging_scale_ = gate_delay_scale;
  force_all_ = true;
}

void BatchTimingSim::resume(std::span<const Logic> values,
                            std::int64_t steps) {
  if (values.size() != carried_.size()) {
    throw std::invalid_argument(
        "BatchTimingSim::resume: need one value per net");
  }
  std::copy(values.begin(), values.end(), carried_.begin());
  std::fill(moved_.begin(), moved_.end(), std::uint8_t{0});
  step_base_ = steps;
  force_all_ = false;
}

void BatchTimingSim::set_fault_overlay(const FaultOverlay* overlay) {
  if (overlay != nullptr && overlay->num_gates() != netlist_->num_gates()) {
    throw std::invalid_argument(
        "BatchTimingSim::set_fault_overlay: overlay sized for a different "
        "netlist");
  }
  overlay_ = overlay;
  // Installing or removing stuck-ats changes gate outputs without any fanin
  // edge; the next word sweeps every gate (the scalar force-dense analogue).
  force_all_ = true;
}

std::span<const StepResult> BatchTimingSim::step_word(
    std::span<const std::uint64_t> input_bits, int lanes) {
  const Netlist& nl = *netlist_;
  if (input_bits.size() != nl.num_inputs()) {
    throw std::invalid_argument("BatchTimingSim::step_word: wrong input count");
  }
  if (lanes < 1 || lanes > kBatchLanes) {
    throw std::invalid_argument(
        "BatchTimingSim::step_word: lanes must be in [1, 64]");
  }
  // Bring the nets the last word moved forward to its final lane; from
  // here on a moved net is one this word moves.
  for (std::size_t n = 0; n < moved_.size(); ++n) {
    if (moved_[n] == 0) continue;
    carried_[n] =
        detail::lane_logic(planes_[n].p0, planes_[n].p1, last_lanes_ - 1);
    moved_[n] = 0;
  }
  for (int l = 0; l < lanes; ++l) {
    results_[l] = StepResult{};
    results_[l].gates_total = nl.num_gates();
  }

  // Pre-scan transient strikes: lanes of this word they land in, plus the
  // cleanup spill — a strike on the last lane of the previous word must be
  // un-flipped by lane 0 even if the gate's fanin is stone stable.
  std::vector<std::pair<GateId, std::uint64_t>> transient_masks;
  std::vector<GateId> forced_gates;
  if (overlay_ != nullptr && overlay_->has_transients()) {
    for (const FaultSite& site : overlay_->faults()) {
      if (site.kind != FaultKind::kTransient) continue;
      if (site.cycle >= step_base_ && site.cycle < step_base_ + lanes) {
        const auto lane = static_cast<int>(site.cycle - step_base_);
        transient_masks.emplace_back(site.gate, std::uint64_t{1} << lane);
      }
      if (site.cycle == step_base_ - 1) forced_gates.push_back(site.gate);
    }
    std::sort(transient_masks.begin(), transient_masks.end());
    // Merge lanes of multiple strikes on the same gate.
    std::size_t w = 0;
    for (std::size_t r = 0; r < transient_masks.size(); ++r) {
      if (w > 0 && transient_masks[w - 1].first == transient_masks[r].first) {
        transient_masks[w - 1].second |= transient_masks[r].second;
      } else {
        transient_masks[w++] = transient_masks[r];
      }
    }
    transient_masks.resize(w);
    std::sort(forced_gates.begin(), forced_gates.end());
    forced_gates.erase(std::unique(forced_gates.begin(), forced_gates.end()),
                       forced_gates.end());
  }

  detail::SweepContext ctx;
  ctx.netlist = netlist_;
  ctx.tech = tech_;
  ctx.overlay = overlay_;
  ctx.aging_scale = aging_scale_.empty() ? nullptr : aging_scale_.data();
  ctx.gate_flags = gate_flags_.data();
  ctx.slot = slot_.data();
  ctx.planes = planes_.data();
  ctx.moved = moved_.data();
  ctx.carried = carried_.data();
  ctx.slots = slots_.data();
  ctx.inputs = inputs_.data();
  ctx.sink = static_cast<std::int32_t>(slots_.size() - 1);
  ctx.results = results_.data();
  ctx.input_bits = input_bits.data();
  ctx.lanes = lanes;
  ctx.lane_mask = lanes == kBatchLanes
                      ? ~std::uint64_t{0}
                      : ((std::uint64_t{1} << lanes) - 1);
  ctx.force_all = force_all_;
  ctx.transient_masks = transient_masks;
  ctx.forced_gates = forced_gates;

  if (use_avx2_sweep()) {
    detail::run_sweep_avx2(ctx);
  } else {
    detail::run_sweep_generic(ctx);
  }
  force_all_ = false;
  last_lanes_ = lanes;

  // Output settle: max changed-output arrival per lane. An output that is
  // a primary input arrives at t = 0.
  for (NetId out : nl.output_nets()) {
    if (moved_[out] == 0 || slot_[out] < 0) continue;
    const detail::NetLanes& w = planes_[out];
    const std::uint64_t ch =
        detail::lane_edges(w.p0, w.p1, carried_[out], ctx.lane_mask).changed;
    const double* arr = slots_[static_cast<std::size_t>(slot_[out])].arrival;
    for (int l = 0; l < lanes; ++l) {
      if (((ch >> l) & 1u) != 0 && arr[l] > results_[l].output_settle_ps) {
        results_[l].output_settle_ps = arr[l];
      }
    }
  }

  stats_.words += 1;
  stats_.lanes += static_cast<std::uint64_t>(lanes);
  stats_.gates_evaluated += ctx.gates_processed;
  step_base_ += lanes;
  if (obs::metrics_enabled()) {
    const BatchMetrics& m = batch_metrics();
    m.words.add();
    m.lanes.add(static_cast<std::uint64_t>(lanes));
    m.gates.add(ctx.gates_processed);
  }
  return {results_.data(), static_cast<std::size_t>(lanes)};
}

Logic BatchTimingSim::lane_value(NetId net, int lane) const {
  if (lane < 0 || lane >= last_lanes_) {
    throw std::out_of_range("BatchTimingSim::lane_value: lane out of range");
  }
  if (moved_[net] == 0) return carried_[net];
  return detail::lane_logic(planes_[net].p0, planes_[net].p1, lane);
}

std::uint64_t BatchTimingSim::output_bits(int lane) const {
  const auto outs = netlist_->output_nets();
  if (outs.size() > 64) {
    throw std::logic_error(
        "BatchTimingSim::output_bits: more than 64 outputs");
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const Logic v = lane_value(outs[i], lane);
    if (!is_known(v)) {
      throw std::logic_error("BatchTimingSim::output_bits: output " +
                             netlist_->output_name(i) + " is unknown");
    }
    if (logic_to_bool(v)) bits |= (std::uint64_t{1} << i);
  }
  return bits;
}

const char* BatchTimingSim::lane_backend() noexcept {
  return use_avx2_sweep() ? "avx2" : "generic";
}

}  // namespace agingsim
