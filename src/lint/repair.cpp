#include "src/lint/repair.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/netlist/surgeon.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/batch_sim.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::lint {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Absolute slop for limit comparisons: arrivals are short sums of
/// picosecond-scale doubles, so a micro-ps tolerance is orders of magnitude
/// above rounding noise and below any physical margin.
constexpr double kEpsPs = 1e-6;

/// Repair iterations (each pass re-runs the full min/max multi-corner STA
/// before deciding the next insertion). The pass count bounds work on
/// unrepairable designs; a clean exit happens as soon as the min side is
/// clean. Upstream (phase-B) repair inserts one chain per pass, so wide
/// multipliers legitimately take O(outputs x chain-length) passes — 16-bit
/// designs converge around a thousand.
constexpr int kRepairMaxPasses = 4000;
/// Total delay-buffer budget across the whole repair.
constexpr int kRepairMaxBuffers = 100000;
/// Planning guard for the *setup* side of every insertion: a buffer
/// inserted fresh (delay scale 1.0 in every corner) will itself age, so the
/// slack checks charge each new buffer `delay * kNewBufferMaxScale` against
/// the setup limits. The min (hold) side deliberately credits only the
/// fresh delay — aging slows buffers, so fresh is the conservative bound
/// for earliest arrivals.
constexpr double kNewBufferMaxScale = 1.2;

/// One setup-limit endpoint class for the slack checks: a set of endpoint
/// output nets that share one max-arrival ceiling.
struct EndpointClass {
  std::vector<std::uint8_t> mask;  // one flag per net
  double limit_ps = 0.0;
  bool any = false;
};

double corner_scale(const StaCorner& corner, GateId g) {
  return corner.gate_delay_scale.empty() ? 1.0 : corner.gate_delay_scale[g];
}

/// Splices overlay entries of value `scale` for `count` buffers inserted at
/// gate position `pos` (insert_buffer renumbering); `pos == npos` appends
/// (insert_output_buffer). An empty overlay means "1.0 everywhere", so for
/// `scale != 1.0` it is materialized first (`prior_gates` = gate count
/// before the insertion).
void splice_overlays(std::vector<StaCorner>& corners, std::size_t pos,
                     int count, double scale, std::size_t prior_gates) {
  for (StaCorner& c : corners) {
    if (c.gate_delay_scale.empty()) {
      if (scale == 1.0) continue;
      c.gate_delay_scale.assign(prior_gates, 1.0);
    }
    if (pos == std::string::npos) {
      c.gate_delay_scale.insert(c.gate_delay_scale.end(),
                                static_cast<std::size_t>(count), scale);
    } else {
      c.gate_delay_scale.insert(
          c.gate_delay_scale.begin() + static_cast<std::ptrdiff_t>(pos),
          static_cast<std::size_t>(count), scale);
    }
  }
}

}  // namespace

EquivalenceSummary check_logic_equivalence(const Netlist& a, const Netlist& b,
                                           const TechLibrary& tech,
                                           std::size_t vectors,
                                           std::uint64_t seed) {
  if (a.num_inputs() != b.num_inputs() ||
      a.num_outputs() != b.num_outputs()) {
    throw std::invalid_argument(
        "check_logic_equivalence: netlists have different interfaces");
  }
  EquivalenceSummary s;
  if (vectors == 0) return s;
  s.checked = true;

  BatchTimingSim sim_a(a, tech);
  BatchTimingSim sim_b(b, tech);
  Rng rng(seed);
  std::vector<std::uint64_t> words(a.num_inputs());
  bool first_word = true;
  std::size_t done = 0;
  while (done < vectors) {
    const int lanes = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(kBatchLanes), vectors - done));
    for (std::uint64_t& w : words) w = rng.next();
    if (first_word) {
      // Lane 0 of the first word drives every input to 1: the all-ones
      // corner flushes power-up X through tri-state keeper structures the
      // same way in both netlists before random lanes are compared.
      for (std::uint64_t& w : words) w |= 1ULL;
      first_word = false;
    }
    sim_a.step_word(words, lanes);
    sim_b.step_word(words, lanes);
    for (std::size_t i = 0; i < a.num_outputs(); ++i) {
      const NetId oa = a.output_nets()[i];
      const NetId ob = b.output_nets()[i];
      for (int l = 0; l < lanes; ++l) {
        if (sim_a.lane_value(oa, l) != sim_b.lane_value(ob, l)) {
          ++s.mismatches;
        }
      }
    }
    done += static_cast<std::size_t>(lanes);
  }
  s.vectors = done;
  return s;
}

HoldRepairResult repair_hold(Netlist& netlist, const TechLibrary& tech,
                             const TimingContext& timing,
                             const HoldRepairConfig& config) {
  if (timing.period_ps <= 0.0) {
    throw std::invalid_argument("repair_hold: clock period must be positive");
  }
  const double period = timing.period_ps;
  const double window = period * timing.razor.shadow_window_cycles;
  const double required = window + timing.hold_margin_ps;
  const double budget = period * timing.max_hold_cycles;
  const double ceiling = period * (1.0 + timing.razor.shadow_window_cycles);
  const double d_buf = tech.delay(CellKind::kBuf);
  if (!(d_buf > 0.0)) {
    throw std::invalid_argument(
        "repair_hold: the buffer cell has a non-positive delay");
  }
  const double d_buf_guard = d_buf * kNewBufferMaxScale;

  HoldRepairResult res;
  res.period_ps = period;
  res.window_ps = window;
  res.required_min_ps = required;

  const std::size_t n_out = netlist.num_outputs();
  if (n_out == 0) {
    res.hold_clean = true;
    res.max_clean = true;
    return res;
  }

  // Snapshot for the equivalence proof before any surgery.
  const Netlist original = netlist;

  // New buffers are absent from any extracted aging scenario, so the two
  // planes model them asymmetrically: scale 1.0 in the hold/min corners
  // (aging only slows a gate, so fresh buffers bound the earliest arrival
  // from below) and the kNewBufferMaxScale guard in the setup/max corners,
  // bounding whatever scale a later re-extraction assigns them.
  std::vector<StaCorner> corners = aging_corners(netlist, timing);
  std::vector<StaCorner> setup_corners = corners;

  std::vector<int> attributed(n_out, 0);
  std::vector<double> before_min(n_out, 0.0), before_max(n_out, 0.0);
  // Unprotected outputs that fit one period pre-repair must still fit it
  // after (an insertion must not create a new razor-coverage error).
  std::vector<std::uint8_t> unprot_was_fast(n_out, 0);
  bool recorded_before = false;
  bool stuck = false;

  std::vector<double> worst_min(n_out), worst_max(n_out);
  const auto collect_worst = [&](const std::vector<CornerTiming>& sta_min,
                                 const std::vector<CornerTiming>& sta_max) {
    for (std::size_t i = 0; i < n_out; ++i) {
      const NetId o = netlist.output_nets()[i];
      double lo = kInf, hi = -kInf;
      for (const CornerTiming& c : sta_min) {
        lo = std::min(lo, c.min_arrival_ps[o]);
      }
      for (const CornerTiming& c : sta_max) {
        hi = std::max(hi, c.max_arrival_ps[o]);
      }
      worst_min[i] = lo;
      worst_max[i] = hi;
    }
  };

  for (int pass = 0; pass < kRepairMaxPasses; ++pass) {
    obs::TraceSpan span("lint.repair_pass", static_cast<std::uint64_t>(pass));
    const StaEngine engine(netlist, tech);
    const std::vector<CornerTiming> sta = engine.run(corners);
    const std::vector<CornerTiming> sta_max = engine.run(setup_corners);
    collect_worst(sta, sta_max);
    if (!recorded_before) {
      before_min = worst_min;
      before_max = worst_max;
      for (std::size_t i = 0; i < n_out; ++i) {
        unprot_was_fast[i] = !timing.output_protected(i) &&
                             worst_max[i] <= period + kEpsPs;
      }
      recorded_before = true;
    }

    std::vector<std::size_t> violating;
    for (std::size_t i = 0; i < n_out; ++i) {
      if (timing.output_protected(i) && worst_min[i] < required - kEpsPs) {
        violating.push_back(i);
      }
    }
    if (violating.empty()) break;
    res.passes = pass + 1;
    if (res.buffers_inserted >= kRepairMaxBuffers) {
      stuck = true;
      break;
    }

    // Phase A: endpoint padding. Appending n buffers at the output shifts
    // both planes up by n*d_buf, so it works exactly when the max side has
    // room for the whole min-side deficit (guard-scaled).
    bool padded = false;
    for (const std::size_t i : violating) {
      const double deficit = required - worst_min[i];
      const int needed =
          std::max(1, static_cast<int>(std::ceil(deficit / d_buf)));
      const double headroom = std::min(budget, ceiling) - worst_max[i];
      if (static_cast<double>(needed) * d_buf_guard > headroom + kEpsPs) {
        continue;
      }
      if (res.buffers_inserted + needed > kRepairMaxBuffers) continue;
      const std::size_t prior = netlist.num_gates();
      NetlistSurgeon(netlist).insert_output_buffer(i, needed);
      splice_overlays(corners, std::string::npos, needed, 1.0, prior);
      splice_overlays(setup_corners, std::string::npos, needed,
                      kNewBufferMaxScale, prior);
      attributed[i] += needed;
      res.buffers_inserted += needed;
      padded = true;
    }
    if (padded) continue;

    // Phase B: one upstream insertion on a violating output's min-critical
    // path, at the edge with the largest worst-corner setup slack. One edge
    // per pass keeps every slack check valid against the arrivals it was
    // computed from.
    std::vector<EndpointClass> classes(3);
    classes[0].limit_ps = budget;  // every output: AHL hold budget
    classes[1].limit_ps = ceiling; // protected: shadow-window ceiling
    classes[2].limit_ps = period;  // unprotected & fast: stay within T_clk
    for (EndpointClass& ec : classes) {
      ec.mask.assign(netlist.num_nets(), 0);
    }
    for (std::size_t i = 0; i < n_out; ++i) {
      const NetId o = netlist.output_nets()[i];
      classes[0].mask[o] = 1;
      classes[0].any = true;
      if (timing.output_protected(i)) {
        classes[1].mask[o] = 1;
        classes[1].any = true;
      } else if (unprot_was_fast[i]) {
        classes[2].mask[o] = 1;
        classes[2].any = true;
      }
    }
    // Setup slack is always judged in the guard-scaled plane.
    std::vector<std::vector<StaEngine::Downstream>> down(setup_corners.size());
    for (std::size_t ci = 0; ci < setup_corners.size(); ++ci) {
      for (const EndpointClass& ec : classes) {
        down[ci].push_back(ec.any
                               ? engine.downstream(setup_corners[ci], ec.mask)
                               : StaEngine::Downstream{});
      }
    }

    // Slowest-first (smallest worst_min first would leave the biggest
    // deficit for last) — take the most-violating output that still has a
    // legal edge.
    std::sort(violating.begin(), violating.end(),
              [&](std::size_t a, std::size_t b) {
                return worst_min[a] < worst_min[b];
              });
    bool inserted = false;
    for (const std::size_t i : violating) {
      // Min-critical path in the corner attaining this output's worst min.
      const NetId o = netlist.output_nets()[i];
      std::size_t worst_ci = 0;
      for (std::size_t ci = 1; ci < sta.size(); ++ci) {
        if (sta[ci].min_arrival_ps[o] < sta[worst_ci].min_arrival_ps[o]) {
          worst_ci = ci;
        }
      }
      const CornerTiming& wc = sta[worst_ci];
      std::vector<std::pair<NetId, GateId>> edges;
      NetId n = o;
      while (true) {
        const std::int32_t drv = netlist.driver_of(n);
        if (drv < 0) break;
        const auto g = static_cast<GateId>(drv);
        const Gate& gt = netlist.gate(g);
        if (gt.in_count == 0) break;
        NetId best_in = netlist.gate_inputs(g)[0];
        for (const NetId in : netlist.gate_inputs(g)) {
          if (wc.min_arrival_ps[in] < wc.min_arrival_ps[best_in]) {
            best_in = in;
          }
        }
        edges.emplace_back(best_in, g);
        n = best_in;
      }

      int best_cap = 0;
      std::size_t best_edge = edges.size();
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const auto [in, g] = edges[e];
        const Gate& gt = netlist.gate(g);
        double cap = kInf;
        for (std::size_t ci = 0; ci < setup_corners.size(); ++ci) {
          const CornerTiming& c = sta_max[ci];
          const double dg =
              tech.delay(gt.kind) * corner_scale(setup_corners[ci], g);
          for (std::size_t k = 0; k < classes.size(); ++k) {
            if (!classes[k].any) continue;
            const double dn = down[ci][k].max_ps[gt.out];
            if (dn == -kInf) continue;  // no such endpoint below this edge
            const double avail =
                classes[k].limit_ps - (c.max_arrival_ps[in] + dg + dn);
            cap = std::min(cap, std::floor((avail + kEpsPs) / d_buf_guard));
          }
        }
        const int cap_i =
            cap == kInf ? 0 : static_cast<int>(std::max(0.0, cap));
        if (cap_i > best_cap) {
          best_cap = cap_i;
          best_edge = e;
        }
      }
      if (best_cap <= 0 || best_edge == edges.size()) continue;

      const double deficit = required - worst_min[i];
      const int needed =
          std::max(1, static_cast<int>(std::ceil(deficit / d_buf)));
      const int count =
          std::min({best_cap, needed,
                    kRepairMaxBuffers - res.buffers_inserted});
      if (count <= 0) continue;
      const auto [in, g] = edges[best_edge];
      const std::size_t prior = netlist.num_gates();
      NetlistSurgeon(netlist).insert_buffer(in, g, count);
      splice_overlays(corners, g, count, 1.0, prior);
      splice_overlays(setup_corners, g, count, kNewBufferMaxScale, prior);
      attributed[i] += count;
      res.buffers_inserted += count;
      inserted = true;
      break;
    }
    if (!inserted) {
      // No violating output has a legal insertion left at this period:
      // report honestly instead of looping.
      stuck = true;
      break;
    }
  }

  // Final verdicts from a fresh full analysis of the repaired netlist.
  const StaEngine engine(netlist, tech);
  const std::vector<CornerTiming> sta = engine.run(corners);
  const std::vector<CornerTiming> sta_max = engine.run(setup_corners);
  collect_worst(sta, sta_max);
  if (!recorded_before) {
    before_min = worst_min;
    before_max = worst_max;
  }

  res.hold_clean = true;
  res.max_clean = true;
  double crit = 0.0;
  for (const CornerTiming& c : sta_max) {
    crit = std::max(crit, c.critical_path_ps);
  }
  if (crit > budget + kEpsPs) res.max_clean = false;
  res.outputs.resize(n_out);
  for (std::size_t i = 0; i < n_out; ++i) {
    OutputHoldReport& r = res.outputs[i];
    r.name = netlist.output_name(i);
    r.output_index = i;
    r.razor_protected = timing.output_protected(i);
    r.buffers_inserted = attributed[i];
    r.min_before_ps = before_min[i];
    r.max_before_ps = before_max[i];
    r.min_after_ps = worst_min[i];
    r.max_after_ps = worst_max[i];
    r.hold_ok_after = !r.razor_protected || worst_min[i] >= required - kEpsPs;
    if (r.razor_protected) {
      if (!r.hold_ok_after) res.hold_clean = false;
      if (worst_max[i] > ceiling + kEpsPs) res.max_clean = false;
    } else if (unprot_was_fast[i] && worst_max[i] > period + kEpsPs) {
      res.max_clean = false;
    }
  }
  (void)stuck;  // `stuck` only shortens the loop; verdicts come from the STA

  res.equivalence = check_logic_equivalence(
      original, netlist, tech, config.equiv_vectors, config.equiv_seed);
  return res;
}

}  // namespace agingsim::lint
