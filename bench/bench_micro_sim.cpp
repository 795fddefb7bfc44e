// Micro-benchmarks for the simulation substrate itself, reported as JSON on
// stdout: netlist construction, static timing, per-pattern step-kernel
// throughput (dense sweep vs sparse event-driven, with the evaluated-gate
// fraction that explains the gap), the corner-parallel kernel's 32-lane
// pass, the architectural policy replay, and parallel sweep scaling across
// thread counts. This is the repo's perf trajectory baseline — run it
// before and after touching the hot paths.
//
// Knobs: AGINGSIM_BENCH_OPS caps the per-config operation count (CI smoke
// uses 500); thread scaling always measures explicit 1/2/4-lane pools, so
// AGINGSIM_THREADS does not affect this binary's numbers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/aging/variation.hpp"
#include "src/report/json.hpp"
#include "src/sim/corner_sim.hpp"

using namespace agingsim;
using namespace agingsim::bench;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time of f() in ms, best of `reps` (first rep warms caches).
template <typename F>
double time_best_ms(int reps, F&& f) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ms();
    f();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

struct KernelNumbers {
  double steps_per_sec = 0.0;
  double evaluated_fraction = 1.0;  // mean gates_evaluated / gates_total
  std::uint64_t checksum = 0;       // xor of products: cross-kernel check
};

KernelNumbers run_kernel(const MultiplierNetlist& m, TimingSim::Mode mode,
                         std::span<const OperandPattern> patterns) {
  MultiplierSim sim(m, tech());
  sim.set_mode(mode);
  const std::size_t ops = patterns.size();
  std::uint64_t evaluated = 0, total = 0, checksum = 0;
  const double t0 = now_ms();
  for (std::size_t i = 0; i < ops; ++i) {
    const StepResult s = sim.apply(patterns[i].a, patterns[i].b);
    evaluated += s.gates_evaluated;
    total += s.gates_total;
    checksum ^= sim.product() + i;
  }
  const double elapsed_ms = now_ms() - t0;
  KernelNumbers out;
  out.steps_per_sec =
      elapsed_ms > 0.0 ? 1000.0 * static_cast<double>(ops) / elapsed_ms : 0.0;
  out.evaluated_fraction =
      total > 0 ? static_cast<double>(evaluated) / static_cast<double>(total)
                : 1.0;
  out.checksum = checksum;
  return out;
}

/// 64-lane batch kernel over the same patterns, timed word-by-word with the
/// packing cost included (that is what any caller pays).
KernelNumbers run_batch(const MultiplierNetlist& m,
                        std::span<const OperandPattern> patterns) {
  BatchTimingSim sim(m.netlist, tech());
  const std::size_t ops = patterns.size();
  std::vector<std::uint64_t> words(m.netlist.input_nets().size());
  std::uint64_t checksum = 0;
  const double t0 = now_ms();
  for (std::size_t chunk = 0; chunk < ops;
       chunk += static_cast<std::size_t>(kBatchLanes)) {
    const int lanes = static_cast<int>(
        std::min<std::size_t>(kBatchLanes, ops - chunk));
    std::fill(words.begin(), words.end(), 0);
    for (int l = 0; l < lanes; ++l) {
      const OperandPattern& p = patterns[chunk + static_cast<std::size_t>(l)];
      load_bus_lane(words, p.a, m.width, m.a_first_input, l);
      load_bus_lane(words, p.b, m.width, m.b_first_input, l);
    }
    sim.step_word(words, lanes);
    for (int l = 0; l < lanes; ++l) {
      checksum ^= sim.output_bits(l) + chunk + static_cast<std::size_t>(l);
    }
  }
  const double elapsed_ms = now_ms() - t0;
  const BatchStats& stats = sim.stats();
  KernelNumbers out;
  out.steps_per_sec =
      elapsed_ms > 0.0 ? 1000.0 * static_cast<double>(ops) / elapsed_ms : 0.0;
  const std::uint64_t dense_equiv = stats.words * m.netlist.num_gates();
  out.evaluated_fraction =
      dense_equiv > 0 ? static_cast<double>(stats.gates_evaluated) /
                            static_cast<double>(dense_equiv)
                      : 1.0;
  out.checksum = checksum;
  return out;
}

/// One 32-lane corner pass over `patterns`, word by word with the packing
/// included (what an MC seed block or a fault-campaign lane group pays).
/// Returns the largest settle of any lane, a check that every round
/// settled alike.
double run_corner_pass(CornerTimingSim& sim, const MultiplierNetlist& m,
                       std::span<const OperandPattern> patterns) {
  std::vector<std::uint64_t> words(m.netlist.num_inputs());
  double max_settle = 0.0;
  sim.power_up(kCornerLanes);
  for (std::size_t first = 0; first < patterns.size(); first += kBatchLanes) {
    const int count = static_cast<int>(
        std::min<std::size_t>(kBatchLanes, patterns.size() - first));
    for (int p = 0; p < count; ++p) {
      const OperandPattern& pat = patterns[first + static_cast<std::size_t>(p)];
      load_bus_lane(words, pat.a, m.width, m.a_first_input, p);
      load_bus_lane(words, pat.b, m.width, m.b_first_input, p);
    }
    for (const double settle : sim.step_word(words, count)) {
      max_settle = std::max(max_settle, settle);
    }
  }
  return max_settle;
}

}  // namespace

static int bench_body() {
  const std::size_t ops = default_ops();
  JsonWriter json;
  json.begin_object();
  json.key("bench").value("micro_sim");
  json.key("ops").value(static_cast<std::uint64_t>(ops));
  json.key("hardware_threads")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));

  // --- Netlist construction -------------------------------------------
  json.key("build_ms").begin_object();
  const struct {
    const char* label;
    MultiplierArch arch;
    int width;
  } builds[] = {{"AM16", MultiplierArch::kArray, 16},
                {"CB16", MultiplierArch::kColumnBypass, 16},
                {"RB16", MultiplierArch::kRowBypass, 16},
                {"CB32", MultiplierArch::kColumnBypass, 32}};
  for (const auto& b : builds) {
    json.key(b.label).value(time_best_ms(3, [&] {
      const MultiplierNetlist m = build_multiplier(b.arch, b.width);
      (void)m.netlist.num_gates();
    }));
  }
  json.end_object();

  // --- Static timing ---------------------------------------------------
  {
    const MultiplierNetlist cb32 = build_column_bypass_multiplier(32);
    json.key("sta_cb32_ms").value(
        time_best_ms(3, [&] { (void)critical_path_ps(cb32, tech()); }));
  }

  // --- Step kernel: dense sweep vs sparse event-driven -----------------
  // Two operand streams per architecture: i.i.d. uniform (worst case for
  // sparsity — nearly every gate glitches) and a FIR-tap stream (fixed
  // coefficient x band-limited signal — the bypassing architectures' actual
  // use case, where most of the array freezes). Each row is the best of 3
  // rounds, and each round times the three kernels in turn, so drift within
  // a row hits all three alike. Every round's product checksum must agree.
  json.key("kernel").begin_array();
  for (const auto arch : {MultiplierArch::kArray, MultiplierArch::kColumnBypass,
                          MultiplierArch::kRowBypass}) {
    const MultiplierNetlist m = build_multiplier(arch, 16);
    Rng uniform_rng(1), tap_rng(2);
    const struct {
      const char* label;
      std::vector<OperandPattern> patterns;
    } streams[] = {{"uniform", uniform_patterns(uniform_rng, 16, ops)},
                   {"fir_tap", fir_tap_patterns(tap_rng, 16, ops)}};
    for (const auto& stream : streams) {
      KernelNumbers best[3];  // dense, sparse, batch
      bool identical = true;
      for (int round = 0; round < 3; ++round) {
        const KernelNumbers got[3] = {
            run_kernel(m, TimingSim::Mode::kDense, stream.patterns),
            run_kernel(m, TimingSim::Mode::kSparse, stream.patterns),
            run_batch(m, stream.patterns)};
        for (std::size_t k = 0; k < 3; ++k) {
          identical = identical && got[k].checksum == got[0].checksum &&
                      (round == 0 || got[k].checksum == best[k].checksum);
          if (round == 0 || got[k].steps_per_sec > best[k].steps_per_sec) {
            best[k] = got[k];
          }
        }
      }
      const KernelNumbers& dense = best[0];
      const KernelNumbers& sparse = best[1];
      const KernelNumbers& batch = best[2];
      json.begin_object();
      json.key("multiplier").value(std::string(arch_name(arch)) + "16");
      json.key("workload").value(stream.label);
      json.key("gates").value(
          static_cast<std::uint64_t>(m.netlist.num_gates()));
      json.key("dense_steps_per_sec").value(dense.steps_per_sec);
      json.key("sparse_steps_per_sec").value(sparse.steps_per_sec);
      json.key("batch_steps_per_sec").value(batch.steps_per_sec);
      json.key("sparse_speedup")
          .value(dense.steps_per_sec > 0.0
                     ? sparse.steps_per_sec / dense.steps_per_sec
                     : 0.0);
      json.key("batch_speedup_vs_sparse")
          .value(sparse.steps_per_sec > 0.0
                     ? batch.steps_per_sec / sparse.steps_per_sec
                     : 0.0);
      json.key("sparse_evaluated_gate_fraction")
          .value(sparse.evaluated_fraction);
      json.key("batch_evaluated_word_fraction")
          .value(batch.evaluated_fraction);
      json.key("products_identical").value(identical);
      json.end_object();
    }
  }
  json.end_array();
  json.key("batch_lane_backend").value(BatchTimingSim::lane_backend());

  // --- Batch kernel thread scaling -------------------------------------
  // Independent batch traces fanned over explicit pools (the shape of a
  // fault campaign's trial fan-out); serial-result identity is the same
  // determinism contract the sweep scaling section asserts. 16 traces, the
  // best of 3 rounds, and each round times every thread count, so drift on
  // a shared host hits all rows alike: with 8 traces and the best of 2
  // runs per row, the 4-thread row read 0.9-3.1x on a 4-vCPU guest.
  {
    const MultiplierNetlist m = build_column_bypass_multiplier(16);
    const std::size_t trace_ops = std::min<std::size_t>(ops, 2000);
    constexpr std::size_t kTraces = 16;
    constexpr int kThreads[] = {1, 2, 4};
    std::vector<std::unique_ptr<exec::ThreadPool>> pools;
    for (const int threads : kThreads) {
      pools.push_back(std::make_unique<exec::ThreadPool>(threads));
    }
    std::vector<std::vector<std::vector<OpTrace>>> results(pools.size());
    std::vector<double> best_ms(pools.size(), 1e300);
    for (int round = 0; round < 3; ++round) {
      for (std::size_t k = 0; k < pools.size(); ++k) {
        best_ms[k] = std::min(best_ms[k], time_best_ms(1, [&] {
          results[k] = exec::parallel_for_indexed(
              *pools[k], kTraces, [&](std::size_t t) {
                return compute_op_trace(
                    m, tech(), workload(16, trace_ops, 0xB000 + t),
                    TraceOptions{.kernel = SimKernel::kBatch});
              });
        }));
      }
    }
    json.key("batch_thread_scaling").begin_array();
    for (std::size_t k = 0; k < pools.size(); ++k) {
      const double ms = best_ms[k];
      json.begin_object();
      json.key("threads").value(kThreads[k]);
      json.key("traces_ms").value(ms);
      json.key("patterns_per_sec")
          .value(ms > 0.0 ? 1000.0 *
                                static_cast<double>(kTraces * trace_ops) / ms
                          : 0.0);
      json.key("speedup_vs_serial").value(ms > 0.0 ? best_ms[0] / ms : 0.0);
      json.key("identical_to_serial").value(results[k] == results[0]);
      json.end_object();
    }
    json.end_array();
  }

  // --- Corner kernel ----------------------------------------------------
  // One 32-lane pass on CB16, each lane its own lognormal delay table, on
  // the two streams above: microseconds per pattern. Best of 3 rounds,
  // each round timing both streams, so drift on a shared host hits both
  // rows alike.
  {
    const MultiplierNetlist m = build_column_bypass_multiplier(16);
    CornerTimingSim sim(m.netlist, tech());
    for (int l = 0; l < kCornerLanes; ++l) {
      sim.set_lane_scales(
          l, process_variation_scales(m.netlist, 0.05,
                                      0xC0 + static_cast<std::uint64_t>(l)));
    }
    const std::size_t pass_ops = std::min<std::size_t>(ops, 4000);
    Rng uniform_rng(1), tap_rng(2);
    const struct {
      const char* label;
      std::vector<OperandPattern> patterns;
    } streams[] = {{"uniform", uniform_patterns(uniform_rng, 16, pass_ops)},
                   {"fir_tap", fir_tap_patterns(tap_rng, 16, pass_ops)}};
    double best_ms[2] = {1e300, 1e300};
    double max_settle[2] = {0.0, 0.0};
    for (int round = 0; round < 3; ++round) {
      for (std::size_t k = 0; k < 2; ++k) {
        best_ms[k] = std::min(best_ms[k], time_best_ms(1, [&] {
          max_settle[k] = run_corner_pass(sim, m, streams[k].patterns);
        }));
      }
    }
    json.key("corner_kernel").begin_array();
    for (std::size_t k = 0; k < 2; ++k) {
      json.begin_object();
      json.key("multiplier").value("CB16");
      json.key("workload").value(streams[k].label);
      json.key("lanes").value(kCornerLanes);
      json.key("patterns").value(static_cast<std::uint64_t>(pass_ops));
      json.key("us_per_pattern")
          .value(1000.0 * best_ms[k] / static_cast<double>(pass_ops));
      json.key("max_settle_ps").value(max_settle[k]);
      json.end_object();
    }
    json.end_array();
  }

  // --- Policy replay ---------------------------------------------------
  {
    const MultiplierNetlist m = build_column_bypass_multiplier(16);
    const auto trace = compute_op_trace(m, tech(), workload(16, ops));
    VlSystemConfig cfg;
    cfg.period_ps = 900.0;
    cfg.ahl.width = 16;
    cfg.ahl.skip = 7;
    VariableLatencySystem sys(m, tech(), cfg);
    const double ms = time_best_ms(3, [&] { (void)sys.run(trace); });
    json.key("policy_replay_ops_per_sec")
        .value(ms > 0.0 ? 1000.0 * static_cast<double>(trace.size()) / ms
                        : 0.0);
  }

  // --- Parallel sweep scaling ------------------------------------------
  {
    const MultiplierNetlist m = build_column_bypass_multiplier(16);
    const auto trace = compute_op_trace(m, tech(), workload(16, ops));
    const auto periods = linspace(550.0, 1350.0, 8);

    std::vector<RunStats> serial_result;
    double serial_ms = 0.0;
    json.key("sweep_scaling").begin_array();
    for (const int threads : {1, 2, 4}) {
      exec::ThreadPool pool(threads);
      std::vector<RunStats> result;
      const double ms = time_best_ms(2, [&] {
        result = sweep_periods(m, trace, periods, 7, true, 0.0, &pool);
      });
      if (threads == 1) {
        serial_result = result;
        serial_ms = ms;
      }
      json.begin_object();
      json.key("threads").value(threads);
      json.key("sweep_ms").value(ms);
      json.key("speedup_vs_serial").value(ms > 0.0 ? serial_ms / ms : 0.0);
      json.key("identical_to_serial").value(result == serial_result);
      json.end_object();
    }
    json.end_array();
  }

  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

AGINGSIM_BENCH_MAIN("bench_micro_sim", bench_body)
