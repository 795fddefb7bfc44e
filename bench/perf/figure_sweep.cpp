// figure_sweep: the paper-figure path (Figs. 13-27 shapes).
//
// One job is 32 (architecture, year) units on the pool: AM16, CB16, RB16
// and CB32 aged 0..7 years. Each unit computes one aged gate-level trace of
// uniform operands with the default kernel, then replays it through a
// fixed-latency design at the aged critical path and an adaptive
// variable-latency design at 8 periods over 0.45-1.05 x that path. Trace
// work on high-activity streams dominates; CB32 (~9.7k gates, about 4x a
// 16-bit unit) varies the working-set size and makes the units unequal, so
// the pool's tail shows.

#include <memory>
#include <vector>

#include "bench/perf/harness.hpp"
#include "src/aging/scenario.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/runtime/serial.hpp"
#include "src/runtime/stats_codec.hpp"
#include "src/workload/patterns.hpp"

namespace agingbench {
namespace {

using namespace agingsim;

struct ArchSpec {
  MultiplierArch arch;
  int width;
  int skip;  ///< AHL base skip number (the paper's Skip-7 / Skip-15)
};

constexpr ArchSpec kArches[] = {
    {MultiplierArch::kArray, 16, 7},
    {MultiplierArch::kColumnBypass, 16, 7},
    {MultiplierArch::kRowBypass, 16, 7},
    {MultiplierArch::kColumnBypass, 32, 15},
};
constexpr std::size_t kCb16 = 1;  // index of CB16 in kArches
constexpr int kYears = 8;
constexpr std::size_t kUnits = std::size(kArches) * kYears;
constexpr int kSweepPoints = 8;
constexpr std::size_t kStressPatterns = 1000;

struct Corner {
  std::vector<double> scales;
  double dvth = 0.0;
};

struct ArchState {
  MultiplierNetlist mult;
  std::vector<Corner> years;
};

struct State {
  std::vector<OperandPattern> operands16, operands32;
  std::vector<ArchState> arches;
};

std::unique_ptr<State> set_up(const Options& opt, std::size_t ops) {
  auto s = std::make_unique<State>();
  Rng rng16(derive_seed(opt.seed, "figure/operands16"));
  Rng rng32(derive_seed(opt.seed, "figure/operands32"));
  s->operands16 = uniform_patterns(rng16, 16, ops);
  s->operands32 = uniform_patterns(rng32, 32, ops);
  const BtiModel model = BtiModel::calibrated(tech());
  s->arches.reserve(std::size(kArches));
  for (const ArchSpec& spec : kArches) {
    ArchState& a = s->arches.emplace_back();
    {
      obs::TraceSpan span("netlist.build");
      a.mult = build_multiplier(spec.arch, spec.width);
    }
    obs::TraceSpan scenario_span("aging.scenario");
    const AgingScenario scenario(a.mult.netlist, tech(), model,
                                 derive_seed(opt.seed, "figure/stress"),
                                 kStressPatterns);
    for (int y = 0; y < kYears; ++y) {
      obs::TraceSpan span("aging.scales", static_cast<std::uint64_t>(y));
      a.years.push_back(
          {scenario.delay_scales_at(y), scenario.mean_dvth_at(y)});
    }
  }
  return s;
}

struct UnitResult {
  std::vector<OpTrace> trace;
  double crit_ps = 0.0;
  RunStats fixed;
  std::vector<RunStats> variable;

  friend bool operator==(const UnitResult&, const UnitResult&) = default;
};

UnitResult compute_unit(const State& s, std::size_t unit, SimKernel kernel) {
  const ArchSpec& spec = kArches[unit / kYears];
  const ArchState& a = s.arches[unit / kYears];
  const Corner& c = a.years[unit % kYears];
  const auto& operands = spec.width == 16 ? s.operands16 : s.operands32;
  UnitResult out;
  {
    obs::TraceSpan span("trace.compute", unit);
    out.trace = compute_op_trace(
        a.mult, tech(), operands,
        TraceOptions{.gate_delay_scale = c.scales, .kernel = kernel});
  }
  {
    obs::TraceSpan span("sta.critical_path", unit);
    out.crit_ps = critical_path_ps(a.mult, tech(), c.scales);
  }
  {
    obs::TraceSpan span("replay.fl", unit);
    FixedLatencySystem fl(a.mult, tech());
    out.fixed = fl.run(out.trace, out.crit_ps, c.dvth);
  }
  for (int p = 0; p < kSweepPoints; ++p) {
    obs::TraceSpan span("replay.vl", unit);
    VlSystemConfig cfg;
    cfg.period_ps = out.crit_ps * (0.45 + 0.60 * p / (kSweepPoints - 1));
    cfg.ahl.width = spec.width;
    cfg.ahl.skip = spec.skip;
    cfg.ahl.adaptive = true;
    VariableLatencySystem vl(a.mult, tech(), cfg);
    out.variable.push_back(vl.run(out.trace, c.dvth));
  }
  return out;
}

std::uint64_t digest_unit(std::size_t unit, const UnitResult& u) {
  runtime::Digest d;
  d.mix(static_cast<std::uint64_t>(unit)).mix(u.crit_ps);
  for (const OpTrace& op : u.trace) {
    d.mix(op.a).mix(op.b).mix(op.product).mix(op.golden).mix(op.delay_ps);
    d.mix(op.switched_cap_ff).mix(op.in_toggles).mix(op.out_toggles);
    d.mix(op.correct).mix(op.fault_active);
  }
  d.mix(std::string_view(runtime::encode_run_stats(u.fixed)));
  for (const RunStats& v : u.variable) {
    d.mix(std::string_view(runtime::encode_run_stats(v)));
  }
  return d.value();
}

struct UnitOutcome {
  std::uint64_t digest = 0;
  double wall_s = 0.0;
};

/// Units are claimed largest first (CB32, then CB16, RB16, AM16), which
/// keeps the makespan of one sweep, and so its run-to-run spread, short.
constexpr std::size_t kClaimOrder[] = {3, 1, 2, 0};
static_assert(std::size(kClaimOrder) == std::size(kArches));

/// `units` comes back in unit order.
Job run_sweep(const State& s, std::size_t ops,
              std::vector<UnitOutcome>* units) {
  const Clock::time_point t0 = Clock::now();
  units->assign(kUnits, {});
  pool().for_each_index(kUnits, [&](std::size_t i) {
    const std::size_t u = kClaimOrder[i / kYears] * kYears + i % kYears;
    obs::TraceSpan span("bench.unit", u);
    const Clock::time_point u0 = Clock::now();
    const std::uint64_t digest =
        digest_unit(u, compute_unit(s, u, SimKernel::kAuto));
    (*units)[u] = {digest, seconds_since(u0)};
  });
  Job job;
  job.wall_s = seconds_since(t0);
  job.work = kUnits * ops;
  job.attempted = kUnits;
  runtime::Digest d;
  for (const UnitOutcome& u : *units) d.mix(u.digest);
  job.digest = d.value();
  return job;
}

}  // namespace

void run_figure_sweep(const Options& opt, Result& r) {
  const std::size_t ops = opt.smoke ? 64 : 2500;
  std::unique_ptr<State> state;
  for (int i = 0; i < setup_count(opt); ++i) {
    state.reset();
    state = timed_setup(r, [&] { return set_up(opt, ops); });
  }
  const State& s = *state;

  std::vector<UnitOutcome> warm_units;
  {
    obs::TraceSpan span("bench.warmup");
    r.warmup = run_sweep(s, ops, &warm_units);
  }

  {
    // One sampled unit recomputed on the dense kernel must match the
    // default kernel exactly, trace and policy statistics alike.
    obs::TraceSpan span("bench.verify");
    const std::size_t unit = derive_seed(opt.seed, "figure/verify") % kUnits;
    const UnitResult dense = compute_unit(s, unit, SimKernel::kDense);
    const UnitResult fast = compute_unit(s, unit, SimKernel::kAuto);
    check(r, "unit_dense_equals_default", dense == fast,
          "unit " + std::to_string(unit));
    check(r, "unit_dense_equals_warmup",
          digest_unit(unit, dense) == warm_units[unit].digest,
          "unit " + std::to_string(unit));

    // Paper anchors (EXPERIMENTS.md): CB16 critical path 1.88 ns, and its
    // seven-year BTI growth (paper ~13 %, this model +12.8 %).
    const ArchState& cb16 = s.arches[kCb16];
    const double fresh = critical_path_ps(cb16.mult, tech());
    const double aged =
        critical_path_ps(cb16.mult, tech(), cb16.years[7].scales);
    r.numbers.emplace_back("anchor_cb16_crit_ps", fresh);
    r.numbers.emplace_back("anchor_cb16_growth_7y_pct",
                           100.0 * (aged / fresh - 1.0));
  }

  std::vector<double> unit_ms;
  {
    obs::TraceSpan window("bench.timed");
    snapshot_metrics(r, "metrics_before");
    run_jobs(opt, r, [&] {
      std::vector<UnitOutcome> units;
      Job job = run_sweep(s, ops, &units);
      for (const UnitOutcome& u : units) unit_ms.push_back(1e3 * u.wall_s);
      return job;
    });
    snapshot_metrics(r, "metrics_after");
  }
  r.series.emplace_back("unit_ms", std::move(unit_ms));
  // Denominators of the per-layer ratios run.py derives from the traced run.
  double gates = 0.0;
  for (const ArchState& a : s.arches) {
    gates += static_cast<double>(a.mult.netlist.num_gates());
  }
  r.numbers.emplace_back("netlist_gates", gates);
  r.numbers.emplace_back("mean_gates_per_step", gates / std::size(kArches));
  r.numbers.emplace_back("ops_per_call", static_cast<double>(ops));
}

}  // namespace agingbench
