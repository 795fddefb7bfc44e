#include "src/core/vl_multiplier.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "src/sim/sta.hpp"
#include "src/sim/value_sweep.hpp"

namespace agingsim {
namespace {

// Per-bit energy of the AHL zero-counter + comparator per judged pattern.
// The AHL is a popcount tree over the judging operand: its activity scales
// with the operand width.
constexpr double kAhlEnergyPerBitFj = 0.5;

std::string to_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  do {
    out.insert(out.begin(), digits[v & 0xF]);
    v >>= 4;
  } while (v != 0);
  return out;
}

/// Op `index` of a trace from its observables; `prev` is the op before it
/// in the stream, null for op 0. Without a fault overlay a wrong product
/// throws (check_golden_product).
OpTrace make_op(std::size_t index, const OperandPattern& pat,
                std::uint64_t product, int width, const StepResult& step,
                bool fault_active, const OpTrace* prev,
                const TraceOptions& options) {
  OpTrace op;
  op.a = pat.a;
  op.b = pat.b;
  op.product = product;
  op.golden = reference_multiply(pat.a, pat.b, width);
  op.correct = (op.product == op.golden);
  op.fault_active = fault_active;
  op.delay_ps = step.output_settle_ps;
  op.switched_cap_ff = step.switched_cap_ff;
  if (prev != nullptr) {
    op.in_toggles =
        std::popcount(pat.a ^ prev->a) + std::popcount(pat.b ^ prev->b);
    op.out_toggles = std::popcount(product ^ prev->product);
  }
  if (options.faults == nullptr) {
    check_golden_product(index, pat.a, pat.b, op.golden, op.product);
  }
  return op;
}

/// Packs `word`'s patterns into lanes [0, word.size()) of one word per
/// primary input.
void load_word(std::vector<std::uint64_t>& words,
               const MultiplierNetlist& mult,
               std::span<const OperandPattern> word) {
  std::fill(words.begin(), words.end(), 0);
  for (std::size_t l = 0; l < word.size(); ++l) {
    load_bus_lane(words, word[l].a, mult.width, mult.a_first_input,
                  static_cast<int>(l));
    load_bus_lane(words, word[l].b, mult.width, mult.b_first_input,
                  static_cast<int>(l));
  }
}

/// compute_op_trace_range on the batch kernel.
void batch_range(const MultiplierNetlist& mult, const TechLibrary& tech,
                 std::span<const OperandPattern> patterns, std::size_t first,
                 std::span<OpTrace> out, const TraceOptions& options) {
  BatchTimingSim sim(mult.netlist, tech, options.gate_delay_scale);
  if (options.faults != nullptr) sim.set_fault_overlay(options.faults);
  std::vector<std::uint64_t> words(mult.netlist.num_inputs());
  OpTrace before;  // the op before `first`, when there is one
  if (first > 0) {
    ValueSweep values(mult.netlist);
    for (std::size_t done = 0; done < first; done += kBatchLanes) {
      const auto word = patterns.subspan(
          done, std::min<std::size_t>(kBatchLanes, first - done));
      load_word(words, mult, word);
      values.step_word(words, static_cast<int>(word.size()));
    }
    sim.resume(values.values(), static_cast<std::int64_t>(first));
    // Without faults that op's product is its golden one; the range that
    // holds the op checks so.
    before.a = patterns[first - 1].a;
    before.b = patterns[first - 1].b;
    before.product = reference_multiply(before.a, before.b, mult.width);
  }
  for (std::size_t done = 0; done < out.size(); done += kBatchLanes) {
    const auto word = patterns.subspan(
        first + done, std::min<std::size_t>(kBatchLanes, out.size() - done));
    const int lanes = static_cast<int>(word.size());
    load_word(words, mult, word);
    const std::int64_t base = sim.steps();
    const std::span<const StepResult> results = sim.step_word(words, lanes);
    for (int l = 0; l < lanes; ++l) {
      const std::size_t i = done + static_cast<std::size_t>(l);
      const bool fault_active =
          options.faults != nullptr && options.faults->active_at(base + l);
      const OpTrace* prev =
          i > 0 ? &out[i - 1] : (first > 0 ? &before : nullptr);
      out[i] = make_op(first + i, word[static_cast<std::size_t>(l)],
                       sim.output_bits(l), mult.width,
                       results[static_cast<std::size_t>(l)], fault_active,
                       prev, options);
    }
  }
}

}  // namespace

std::vector<OpTrace> compute_op_trace(const MultiplierNetlist& mult,
                                      const TechLibrary& tech,
                                      std::span<const OperandPattern> patterns,
                                      const TraceOptions& options) {
  std::vector<OpTrace> trace(patterns.size());
  compute_op_trace_range(mult, tech, patterns, 0, trace, options);
  return trace;
}

void compute_op_trace_range(const MultiplierNetlist& mult,
                            const TechLibrary& tech,
                            std::span<const OperandPattern> patterns,
                            std::size_t first, std::span<OpTrace> out,
                            const TraceOptions& options) {
  if (first > patterns.size() || out.size() > patterns.size() - first) {
    throw std::invalid_argument(
        "compute_op_trace_range: range past the end of the stream");
  }
  const SimKernel kernel = resolve_kernel(options.kernel);
  if (first > 0 && (kernel != SimKernel::kBatch || options.faults != nullptr)) {
    throw std::invalid_argument(
        "compute_op_trace_range: a range past op 0 needs the batch kernel "
        "and no fault overlay");
  }
  if (kernel == SimKernel::kBatch) {
    batch_range(mult, tech, patterns, first, out, options);
    return;
  }
  MultiplierSim sim(mult, tech, options.gate_delay_scale);
  if (kernel == SimKernel::kDense) sim.set_mode(TimingSim::Mode::kDense);
  if (options.faults != nullptr) sim.set_fault_overlay(options.faults);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::int64_t cycle = sim.timing_sim().steps();
    const StepResult step = sim.apply(patterns[i].a, patterns[i].b);
    const bool fault_active =
        options.faults != nullptr && options.faults->active_at(cycle);
    out[i] = make_op(i, patterns[i], sim.product(), mult.width, step,
                     fault_active, i > 0 ? &out[i - 1] : nullptr, options);
  }
}

void check_golden_product(std::size_t index, std::uint64_t a, std::uint64_t b,
                          std::uint64_t golden, std::uint64_t product) {
  // Without injected faults a mismatch is a netlist or simulator bug; carry
  // everything needed to reproduce it in the message.
  if (product == golden) return;
  throw std::logic_error(
      "compute_op_trace: netlist product mismatch at pattern index " +
      std::to_string(index) + ": " + std::to_string(a) + " * " +
      std::to_string(b) + ": expected " + std::to_string(golden) + " (0x" +
      to_hex(golden) + "), netlist says " + std::to_string(product) + " (0x" +
      to_hex(product) + ")");
}

double critical_path_ps(const MultiplierNetlist& mult, const TechLibrary& tech,
                        std::span<const double> gate_delay_scale) {
  StaCorner corner;
  corner.gate_delay_scale.assign(gate_delay_scale.begin(),
                                 gate_delay_scale.end());
  return StaEngine(mult.netlist, tech).run_corner(corner).critical_path_ps;
}

VariableLatencySystem::VariableLatencySystem(const MultiplierNetlist& mult,
                                             const TechLibrary& tech,
                                             VlSystemConfig config)
    : mult_(&mult), tech_(&tech), config_(config), power_(tech) {
  if (!(config.period_ps > 0.0)) {
    throw std::invalid_argument("VariableLatencySystem: period must be > 0");
  }
  if (config.ahl.width != mult.width) {
    throw std::invalid_argument(
        "VariableLatencySystem: AHL width must match the multiplier width");
  }
}

VariableLatencySystem::Replay::Replay(const VariableLatencySystem& system)
    : system_(&system),
      ahl_(system.config_.ahl),
      razor_(system.config_.razor),
      escape_rng_(system.config_.razor_seed) {
  stats_.period_ps = system.config_.period_ps;
}

void VariableLatencySystem::Replay::step(const OpTrace& op) {
  const VariableLatencySystem& sys = *system_;
  const double period = sys.config_.period_ps;
  const int width = sys.mult_->width;
  const int ff_bits = 2 * width;  // per bank: two operands in, 2m product out
  RunStats& s = stats_;

  const std::uint64_t judging =
      judges_on_multiplicand(sys.mult_->arch) ? op.a : op.b;
  if (ahl_.storm_active()) ++s.storm_ops;
  const int decided = ahl_.decide_cycles(judging);
  bool error = false;
  // Whether the word the architecture finally commits equals a*b. Razor
  // re-execution recovers *timing* faults (the settled product), never
  // functional ones — a stuck-at that corrupts the settled value escapes
  // to SDC even when a violation happened to be flagged on the same op.
  bool committed_correct;
  std::uint64_t cycles;
  if (decided == 1) {
    ++s.one_cycle_ops;
    if (RazorBank::violation(op.delay_ps, period)) {
      const double p_detect = razor_.detection_probability(op.delay_ps,
                                                           period);
      const bool detected =
          p_detect > 0.0 && escape_rng_.next_double() < p_detect;
      if (detected) {
        error = true;
        ++s.errors;
        cycles = 1 + static_cast<std::uint64_t>(razor_.reexec_penalty_cycles());
        committed_correct = op.correct;  // re-exec commits the settled word
      } else if (razor_.detectable(op.delay_ps, period)) {
        // In-window violation the comparator missed (metastability): the
        // main flip-flop's marginal capture is committed unchallenged.
        ++s.razor_escapes;
        cycles = 1;
        committed_correct = false;
      } else {
        // Outside the shadow window: silently wrong result. The fault-free
        // variable-latency contract (T >= crit/2) makes this impossible;
        // tracked so tests and benches can assert it stays zero — and so
        // fault campaigns can measure when injected delay outliers break
        // the contract.
        ++s.undetected;
        cycles = 1;
        committed_correct = false;
      }
    } else {
      cycles = 1;
      committed_correct = op.correct;
    }
  } else {
    ++s.two_cycle_ops;
    cycles = 2;
    committed_correct = op.correct;
    if (op.delay_ps > 2.0 * period) {
      ++s.undetected;
      committed_correct = false;
    }
  }
  if (!committed_correct) {
    ++s.sdc_ops;
  } else if (op.fault_active && !error) {
    ++s.masked_faults;
  }
  ahl_.record_outcome(error);

  s.total_cycles += cycles;
  ++s.ops;

  // Energy. Combinational switching is policy-independent; registers and
  // AHL depend on the cycle structure:
  //  - input flip-flops latch new operands once per op; hold cycles are
  //    clock-gated (the paper's !(gating) signal), so they contribute no
  //    further clock energy;
  //  - Razor flip-flops sample every cycle (they cannot be gated — they
  //    are the error detector).
  const PowerModel& power = sys.power_;
  s.comb_energy_fj += power.dynamic_energy_fj(op.switched_cap_ff);
  s.register_energy_fj += power.dff_bank_energy_fj(ff_bits, op.in_toggles);
  s.register_energy_fj +=
      static_cast<double>(cycles) *
      power.razor_bank_energy_fj(ff_bits, 0) +
      power.razor_bank_energy_fj(0, op.out_toggles);
  s.ahl_energy_fj += kAhlEnergyPerBitFj * static_cast<double>(width);
}

RunStats VariableLatencySystem::Replay::finish(double mean_dvth_v) const {
  const VariableLatencySystem& sys = *system_;
  const double period = sys.config_.period_ps;
  RunStats s = stats_;
  s.switched_to_second_block = ahl_.using_second_block();
  s.storm_engagements = ahl_.storm_engagements();
  s.storm_recoveries = ahl_.storm_recoveries();

  const double total_time_ps =
      static_cast<double>(s.total_cycles) * period;
  const double leak_nw =
      sys.power_.leakage_power_nw(sys.mult_->netlist, mean_dvth_v);
  // nW * ps = 1e-9 W * 1e-12 s = 1e-21 J = 1e-6 fJ.
  s.leakage_energy_fj = leak_nw * total_time_ps * 1e-6;
  s.total_energy_fj = s.comb_energy_fj + s.register_energy_fj +
                      s.ahl_energy_fj + s.leakage_energy_fj;

  if (s.ops > 0) {
    s.avg_cycles = static_cast<double>(s.total_cycles) /
                   static_cast<double>(s.ops);
    s.avg_latency_ps = s.avg_cycles * period;
    s.one_cycle_ratio = static_cast<double>(s.one_cycle_ops) /
                        static_cast<double>(s.ops);
    s.errors_per_10k_ops = static_cast<double>(s.errors) * 10000.0 /
                           static_cast<double>(s.ops);
    s.sdc_per_10k_ops = static_cast<double>(s.sdc_ops) * 10000.0 /
                        static_cast<double>(s.ops);
    // fJ / ps = mW.
    s.avg_power_mw = s.total_energy_fj / total_time_ps;
    s.edp_mw_ns2 = energy_delay_product(s.avg_power_mw,
                                        s.avg_latency_ps * 1e-3);
  }
  return s;
}

RunStats VariableLatencySystem::run(std::span<const OpTrace> trace,
                                    double mean_dvth_v) {
  Replay replay(*this);
  for (const OpTrace& op : trace) replay.step(op);
  return replay.finish(mean_dvth_v);
}

FixedLatencySystem::FixedLatencySystem(const MultiplierNetlist& mult,
                                       const TechLibrary& tech)
    : mult_(&mult), tech_(&tech), power_(tech) {}

RunStats FixedLatencySystem::run(std::span<const OpTrace> trace,
                                 double period_ps, double mean_dvth_v) {
  if (!(period_ps > 0.0)) {
    throw std::invalid_argument("FixedLatencySystem: period must be > 0");
  }
  const int ff_bits = 2 * mult_->width;
  RunStats s;
  s.period_ps = period_ps;
  for (const OpTrace& op : trace) {
    if (op.delay_ps > period_ps) {
      // A fixed-latency design clocked faster than its critical path is
      // simply broken; callers must pass the (aged) critical path.
      ++s.undetected;
    }
    // No Razor here: every late settle or corrupted settle commits.
    if (!op.correct || op.delay_ps > period_ps) {
      ++s.sdc_ops;
    } else if (op.fault_active) {
      ++s.masked_faults;
    }
    ++s.ops;
    s.total_cycles += 1;
    s.comb_energy_fj += power_.dynamic_energy_fj(op.switched_cap_ff);
    // Plain D flip-flop banks at input and output (paper's fairness note in
    // Section IV-E: baseline power includes both register banks).
    s.register_energy_fj += power_.dff_bank_energy_fj(ff_bits, op.in_toggles);
    s.register_energy_fj += power_.dff_bank_energy_fj(ff_bits, op.out_toggles);
  }
  const double total_time_ps =
      static_cast<double>(s.total_cycles) * period_ps;
  const double leak_nw = power_.leakage_power_nw(mult_->netlist, mean_dvth_v);
  s.leakage_energy_fj = leak_nw * total_time_ps * 1e-6;
  s.total_energy_fj =
      s.comb_energy_fj + s.register_energy_fj + s.leakage_energy_fj;
  if (s.ops > 0) {
    s.avg_cycles = 1.0;
    s.avg_latency_ps = period_ps;
    s.one_cycle_ratio = 1.0;
    s.sdc_per_10k_ops = static_cast<double>(s.sdc_ops) * 10000.0 /
                        static_cast<double>(s.ops);
    s.avg_power_mw = s.total_energy_fj / total_time_ps;
    s.edp_mw_ns2 =
        energy_delay_product(s.avg_power_mw, s.avg_latency_ps * 1e-3);
  }
  return s;
}

}  // namespace agingsim
