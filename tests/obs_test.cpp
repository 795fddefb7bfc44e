// The observability layer's contracts (docs/OBSERVABILITY.md): disabled
// sites record nothing, shards merge across threads, trace rings keep the
// newest spans on wraparound and an exited thread's spans on reuse, and
// the Chrome trace export is well-formed JSON whose complete events nest
// consistently, and the library's layers record their spans.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/vl_multiplier.hpp"
#include "src/lint/engine.hpp"
#include "src/lint/repair.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/sta.hpp"

namespace agingsim {
namespace {

/// Restores the global recorder state and the default ring capacity no
/// matter how a test exits — other tests assume everything is off.
struct ObsQuiesce {
  ~ObsQuiesce() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::set_trace_ring_capacity(16384);
  }
};

const obs::MetricValue* find_metric(const std::vector<obs::MetricValue>& snap,
                                    std::string_view name) {
  for (const obs::MetricValue& m : snap) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator: enough of RFC 8259 to prove the
// exports parse (objects, arrays, strings with escapes, numbers, literals).
// Returns the position one past the value, or npos on a syntax error.

constexpr std::size_t kBad = std::string::npos;

std::size_t skip_ws(std::string_view s, std::size_t p) {
  while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) ++p;
  return p;
}

std::size_t parse_value(std::string_view s, std::size_t p);

std::size_t parse_string(std::string_view s, std::size_t p) {
  if (p >= s.size() || s[p] != '"') return kBad;
  for (++p; p < s.size(); ++p) {
    if (s[p] == '\\') {
      ++p;
      continue;
    }
    if (s[p] == '"') return p + 1;
  }
  return kBad;
}

std::size_t parse_number(std::string_view s, std::size_t p) {
  const std::size_t start = p;
  if (p < s.size() && s[p] == '-') ++p;
  while (p < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[p])) || s[p] == '.' ||
          s[p] == 'e' || s[p] == 'E' || s[p] == '+' || s[p] == '-')) {
    ++p;
  }
  return p > start ? p : kBad;
}

std::size_t parse_container(std::string_view s, std::size_t p, char open,
                            char close, bool keyed) {
  if (p >= s.size() || s[p] != open) return kBad;
  p = skip_ws(s, p + 1);
  if (p < s.size() && s[p] == close) return p + 1;
  while (true) {
    if (keyed) {
      p = parse_string(s, skip_ws(s, p));
      if (p == kBad) return kBad;
      p = skip_ws(s, p);
      if (p >= s.size() || s[p] != ':') return kBad;
      ++p;
    }
    p = parse_value(s, p);
    if (p == kBad) return kBad;
    p = skip_ws(s, p);
    if (p >= s.size()) return kBad;
    if (s[p] == close) return p + 1;
    if (s[p] != ',') return kBad;
    p = skip_ws(s, p + 1);
  }
}

std::size_t parse_value(std::string_view s, std::size_t p) {
  p = skip_ws(s, p);
  if (p >= s.size()) return kBad;
  switch (s[p]) {
    case '{': return parse_container(s, p, '{', '}', true);
    case '[': return parse_container(s, p, '[', ']', false);
    case '"': return parse_string(s, p);
    case 't': return s.compare(p, 4, "true") == 0 ? p + 4 : kBad;
    case 'f': return s.compare(p, 5, "false") == 0 ? p + 5 : kBad;
    case 'n': return s.compare(p, 4, "null") == 0 ? p + 4 : kBad;
    default: return parse_number(s, p);
  }
}

bool is_valid_json(std::string_view s) {
  const std::size_t end = parse_value(s, 0);
  return end != kBad && skip_ws(s, end) == s.size();
}

/// A numeric field (ts, dur, tid) of the event holding the span name.
double event_field(const std::string& json, std::string_view name,
                   std::string_view field) {
  const std::size_t at = json.find('"' + std::string(name) + '"');
  EXPECT_NE(at, std::string::npos) << "span " << name << " not exported";
  const std::size_t f =
      json.find('"' + std::string(field) + "\": ", at);
  EXPECT_NE(f, std::string::npos);
  return std::stod(json.substr(f + field.size() + 4));
}

// ---------------------------------------------------------------------------

TEST(ObsMetricsTest, DisabledSitesRecordNothing) {
  ObsQuiesce quiesce;
  obs::set_metrics_enabled(false);
  obs::reset_metrics();
  const obs::Counter& c = obs::counter("obs_test.off_counter");
  const obs::Gauge& g = obs::gauge("obs_test.off_gauge");
  static constexpr double kBounds[] = {1.0};
  const obs::Histogram& h = obs::histogram("obs_test.off_hist", kBounds);
  c.add(5);
  g.record(42);
  h.observe(0.5);

  const auto snap = obs::metrics_snapshot();
  for (const char* name :
       {"obs_test.off_counter", "obs_test.off_gauge", "obs_test.off_hist"}) {
    const obs::MetricValue* m = find_metric(snap, name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->value, 0u) << name;
    EXPECT_EQ(m->sum, 0u) << name;
  }
}

TEST(ObsMetricsTest, ShardsMergeAcrossThreads) {
  ObsQuiesce quiesce;
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  const obs::Counter& c = obs::counter("obs_test.merge_counter");
  const obs::Gauge& g = obs::gauge("obs_test.merge_gauge");
  static constexpr double kBounds[] = {10.0, 100.0};
  const obs::Histogram& h = obs::histogram("obs_test.merge_hist", kBounds);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < 100; ++i) c.add();
        g.record(10 * (t + 1));
        h.observe(5.0);    // bucket <= 10
        h.observe(50.0);   // bucket <= 100
        h.observe(500.0);  // overflow bucket
      });
    }
  }  // joins — retired shards must still contribute to the snapshot

  const auto snap = obs::metrics_snapshot();
  const obs::MetricValue* counter = find_metric(snap, "obs_test.merge_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 400u);

  const obs::MetricValue* gauge = find_metric(snap, "obs_test.merge_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 40u);  // max across threads, not the sum

  const obs::MetricValue* hist = find_metric(snap, "obs_test.merge_hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_EQ(hist->buckets.size(), 3u);
  EXPECT_EQ(hist->buckets[0], 4u);
  EXPECT_EQ(hist->buckets[1], 4u);
  EXPECT_EQ(hist->buckets[2], 4u);
  EXPECT_EQ(hist->value, 12u);  // total observation count
  EXPECT_EQ(hist->sum, 4u * (5 + 50 + 500));
}

TEST(ObsMetricsTest, DeterministicOnlyFiltersWallTimeMetrics) {
  ObsQuiesce quiesce;
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  obs::counter("obs_test.det_counter").add();
  obs::counter("obs_test.wall_counter", /*deterministic=*/false).add();

  const std::string all = obs::metrics_json(/*deterministic_only=*/false);
  const std::string det = obs::metrics_json(/*deterministic_only=*/true);
  EXPECT_TRUE(is_valid_json(all)) << all;
  EXPECT_TRUE(is_valid_json(det)) << det;
  EXPECT_NE(all.find("obs_test.wall_counter"), std::string::npos);
  EXPECT_NE(det.find("obs_test.det_counter"), std::string::npos);
  EXPECT_EQ(det.find("obs_test.wall_counter"), std::string::npos) << det;
}

TEST(ObsMetricsTest, MismatchedKindReregistrationThrows) {
  const obs::Counter& c = obs::counter("obs_test.kind_clash");
  (void)c;
  EXPECT_THROW(obs::gauge("obs_test.kind_clash"), std::logic_error);
}

TEST(ObsTraceTest, DisabledSpansRecordNothing) {
  ObsQuiesce quiesce;
  obs::set_trace_enabled(false);
  obs::reset_trace();
  { obs::TraceSpan span("obs_test.never"); }
  const std::string json = obs::trace_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_EQ(json.find("obs_test.never"), std::string::npos) << json;
}

TEST(ObsTraceTest, RingWraparoundKeepsNewestSpans) {
  ObsQuiesce quiesce;
  obs::set_trace_ring_capacity(8);
  obs::set_trace_enabled(true);
  obs::reset_trace();
  for (std::uint64_t i = 0; i < 20; ++i) {
    obs::TraceSpan span("obs_test.wrap", i);
  }
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  EXPECT_TRUE(is_valid_json(json)) << json;
  // Newest 8 spans (args 12..19) survive; the oldest 12 were overwritten.
  for (std::uint64_t arg = 12; arg < 20; ++arg) {
    EXPECT_NE(json.find("\"v\": " + std::to_string(arg)), std::string::npos)
        << "missing newest span arg " << arg;
  }
  for (std::uint64_t arg = 0; arg < 12; ++arg) {
    EXPECT_EQ(json.find("\"v\": " + std::to_string(arg) + "\n"),
              std::string::npos)
        << "overwritten span arg " << arg << " resurfaced";
  }
  EXPECT_NE(json.find("\"dropped_events\": 12"), std::string::npos) << json;
  EXPECT_EQ(obs::trace_dropped_spans(), 12u);
}

TEST(ObsTraceTest, ReusedRingKeepsTheExitedThreadsSpans) {
  ObsQuiesce quiesce;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  constexpr std::uint64_t kExitedSpans = 5;
  std::thread([] {
    for (std::uint64_t i = 0; i < kExitedSpans; ++i) {
      obs::TraceSpan span("obs_test.exited", i);
    }
  }).join();
  // The next new thread adopts the exited thread's ring.
  std::thread([] { obs::TraceSpan span("obs_test.adopter"); }).join();
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  ASSERT_TRUE(is_valid_json(json)) << json;
  // Every span of the exited thread survives under its own tid, and the
  // adopter's span is exported under another.
  const double exited_tid = event_field(json, "obs_test.exited", "tid");
  const double adopter_tid = event_field(json, "obs_test.adopter", "tid");
  EXPECT_NE(exited_tid, adopter_tid);
  for (std::uint64_t i = 0; i < kExitedSpans; ++i) {
    EXPECT_NE(json.find("\"v\": " + std::to_string(i)), std::string::npos)
        << "exited thread's span " << i << " was lost";
  }
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos) << json;
  EXPECT_EQ(obs::trace_dropped_spans(), 0u);
}

TEST(ObsTraceTest, CapacityChangeCountsClearedSpansAsDropped) {
  ObsQuiesce quiesce;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  for (int i = 0; i < 3; ++i) {
    obs::TraceSpan span("obs_test.cleared");
  }
  // The next span resizes this thread's ring, clearing the three above.
  obs::set_trace_ring_capacity(64);
  { obs::TraceSpan span("obs_test.after_resize"); }
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  EXPECT_EQ(json.find("obs_test.cleared"), std::string::npos) << json;
  EXPECT_NE(json.find("obs_test.after_resize"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped_events\": 3"), std::string::npos) << json;
  EXPECT_EQ(obs::trace_dropped_spans(), 3u);
  obs::reset_trace();
  EXPECT_EQ(obs::trace_dropped_spans(), 0u);
}

TEST(ObsTraceTest, ExportIsChromeTraceJsonWithNestedCompleteEvents) {
  ObsQuiesce quiesce;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  {
    obs::TraceSpan outer("obs_test.outer");
    {
      obs::TraceSpan inner("obs_test.inner", 7);
    }
  }
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  ASSERT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  // Complete events carry begin (ts) and duration (dur); the inner span's
  // window must sit inside the outer's — mismatched timestamps would break
  // the nesting every trace viewer renders.
  const double outer_ts = event_field(json, "obs_test.outer", "ts");
  const double outer_dur = event_field(json, "obs_test.outer", "dur");
  const double inner_ts = event_field(json, "obs_test.inner", "ts");
  const double inner_dur = event_field(json, "obs_test.inner", "dur");
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-9);
  EXPECT_GE(outer_dur, 0.0);
  EXPECT_GE(inner_dur, 0.0);
}

TEST(ObsTraceTest, SpanEnabledAtConstructionRecordsDespiteLaterDisable) {
  ObsQuiesce quiesce;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  {
    obs::TraceSpan span("obs_test.mid_disable");
    obs::set_trace_enabled(false);
  }
  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("obs_test.mid_disable"), std::string::npos) << json;
}

// The library's own layers record spans (docs/OBSERVABILITY.md), so any
// traced run can split its time across netlist generation, STA, lint and
// hold repair without harness wrappers.
TEST(ObsTraceTest, LibraryLayersRecordTheirSpans) {
  ObsQuiesce quiesce;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  const TechLibrary& tech = default_tech_library();
  const MultiplierNetlist mult =
      build_multiplier(MultiplierArch::kColumnBypass, 4);
  StaEngine(mult.netlist, tech).run(std::vector<StaCorner>(2));
  lint::TimingContext timing;
  timing.tech = &tech;
  timing.period_ps = critical_path_ps(mult, tech) / timing.max_hold_cycles;
  lint::LintContext ctx;
  ctx.netlist = &mult.netlist;
  ctx.timing = &timing;
  lint::run(ctx);
  Netlist repaired = mult.netlist;
  lint::repair_hold(repaired, tech, timing);
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  for (const char* name : {"netlist.generate", "sta.run", "sta.run_corner",
                           "lint.rule", "lint.repair_pass"}) {
    std::string quoted(1, '"');
    quoted.append(name).push_back('"');
    EXPECT_NE(json.find(quoted), std::string::npos) << name;
  }
}

// The four timing rules read one multi-corner analysis per lint::run call:
// two traced runs with the hold rule on record two `sta.run` spans.
TEST(ObsTraceTest, LintRunSharesOneStaRunAcrossTimingRules) {
  ObsQuiesce quiesce;
  const TechLibrary& tech = default_tech_library();
  const MultiplierNetlist mult =
      build_multiplier(MultiplierArch::kColumnBypass, 4);
  lint::TimingContext timing;
  timing.tech = &tech;
  timing.period_ps = critical_path_ps(mult, tech) / timing.max_hold_cycles;
  timing.check_hold = true;
  lint::LintContext ctx;
  ctx.netlist = &mult.netlist;
  ctx.timing = &timing;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  lint::run(ctx);
  lint::run(ctx);
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  std::size_t sta_runs = 0;
  for (std::size_t at = json.find("\"sta.run\""); at != std::string::npos;
       at = json.find("\"sta.run\"", at + 1)) {
    ++sta_runs;
  }
  EXPECT_EQ(sta_runs, 2u);
}

// Every multiplier build runs Netlist::validate, which calls the structural
// rules directly: a traced build records no lint.rule span.
TEST(ObsTraceTest, MultiplierBuildRecordsNoLintSpans) {
  ObsQuiesce quiesce;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  const MultiplierNetlist mult =
      build_multiplier(MultiplierArch::kColumnBypass, 4);
  mult.netlist.validate();
  obs::set_trace_enabled(false);

  const std::string json = obs::trace_json();
  EXPECT_NE(json.find("\"netlist.generate\""), std::string::npos);
  EXPECT_EQ(json.find("\"lint.rule\""), std::string::npos);
}

}  // namespace
}  // namespace agingsim
