// Tests of agingd's `query` method (src/serve/service.hpp), in process: a
// hot reply replays the cached corner on the shared circuit, so it must
// equal the cold reply and a run computed from scratch; the skip number
// defaults to the width's.

#include "src/serve/service.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

#include "bench/common.hpp"
#include "src/core/ahl.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/report/json.hpp"
#include "src/report/stats_json.hpp"
#include "src/serve/json.hpp"
#include "src/workload/patterns.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::serve {
namespace {

constexpr const char* kArchs[] = {"am", "cb", "rb"};

Request query_request(const std::string& params) {
  Request request;
  request.method = "query";
  request.params = parse_json(params).value();
  return request;
}

/// Parses and runs one query, the way a worker runs a request admitted at
/// the door.
HandlerResult query(Service& service, const std::string& params) {
  std::string error;
  const std::optional<RequestParams> parsed =
      Service::parse(query_request(params), error);
  if (!parsed.has_value()) {
    ADD_FAILURE() << "query rejected at parse: " << error;
    return HandlerResult{};
  }
  return service.handle(0, *parsed, runtime::CancelToken{});
}

std::string query_params(std::string_view arch, int width, double years) {
  return R"({"arch": ")" + std::string(arch) +
         R"(", "width": )" + std::to_string(width) +
         R"(, "years": )" + std::to_string(years) +
         R"(, "ops": 300, "seed": 4242})";
}

/// A query result with its "cache_hit" line cut out.
std::string without_cache_hit(std::string doc) {
  const std::size_t at = doc.find("\"cache_hit\"");
  if (at == std::string::npos) return doc;
  const std::size_t line = doc.rfind('\n', at);
  doc.erase(line, doc.find('\n', at) - line);
  return doc;
}

/// The bytes of a result from its "stats" key to the end. "stats" is the
/// last member of a query result, and these bytes do not depend on the
/// members before it.
std::string stats_bytes(const std::string& doc) {
  const std::size_t at = doc.find("\"stats\"");
  return at == std::string::npos ? std::string() : doc.substr(at);
}

double period_ps(const HandlerResult& result) {
  const JsonValue doc = parse_json(result.result_json).value();
  const JsonValue* stats = doc.find("stats");
  return stats != nullptr ? stats->num_or("period_ps", 0.0) : 0.0;
}

TEST(ServeQuery, HotRepliesEqualColdReplies) {
  for (const char* arch : kArchs) {
    double fresh_period_ps = 0.0;
    for (const double years : {0.0, 3.0}) {
      SCOPED_TRACE(std::string(arch) + " years " + std::to_string(years));
      AgedStateCache cache(8u << 20);
      Service service(ServiceConfig{}, &cache);
      const std::string params = query_params(arch, 8, years);
      const HandlerResult cold = query(service, params);
      const HandlerResult hot = query(service, params);
      ASSERT_TRUE(cold.ok) << cold.message;
      ASSERT_TRUE(hot.ok) << hot.message;
      EXPECT_NE(cold.result_json.find("\"cache_hit\": false"),
                std::string::npos);
      EXPECT_NE(hot.result_json.find("\"cache_hit\": true"),
                std::string::npos);
      EXPECT_EQ(stats_bytes(hot.result_json), stats_bytes(cold.result_json));
      EXPECT_EQ(without_cache_hit(hot.result_json),
                without_cache_hit(cold.result_json));
      // The period follows the corner's own critical path: aging
      // lengthens it.
      if (years == 0.0) {
        fresh_period_ps = period_ps(hot);
      } else {
        EXPECT_GT(period_ps(hot), fresh_period_ps);
      }
    }
  }
}

TEST(ServeQuery, FreshStatsEqualARunFromScratch) {
  for (const char* arch : kArchs) {
    SCOPED_TRACE(arch);
    // From scratch: a new netlist, trace and critical path, replayed the
    // way a query's defaults say (period 0.58 × critical path, adaptive).
    const MultiplierNetlist mult =
        build_multiplier(parse_arch(arch).value(), 8);
    Rng rng(4242);
    const auto patterns = uniform_patterns(rng, 8, 300);
    const auto trace = compute_op_trace(mult, bench::tech(), patterns);
    VlSystemConfig cfg;
    cfg.period_ps = 0.58 * critical_path_ps(mult, bench::tech());
    cfg.ahl.width = 8;
    cfg.ahl.skip = default_skip(8);
    cfg.ahl.adaptive = true;
    VariableLatencySystem sys(mult, bench::tech(), cfg);
    JsonWriter want;
    want.begin_object();
    want.key("stats").begin_object();
    write_run_stats(want, sys.run(trace));
    want.end_object();
    want.end_object();

    AgedStateCache cache(8u << 20);
    Service service(ServiceConfig{}, &cache);
    const std::string params = query_params(arch, 8, 0.0);
    for (const char* pass : {"cold", "hot"}) {
      const HandlerResult got = query(service, params);
      ASSERT_TRUE(got.ok) << pass << ": " << got.message;
      EXPECT_EQ(stats_bytes(got.result_json), stats_bytes(want.str()))
          << pass;
    }
  }
}

TEST(ServeQuery, SkipDefaultsBelowTheWidth) {
  AgedStateCache cache(8u << 20);
  Service service(ServiceConfig{}, &cache);
  // Skip-7 is out of range at 4 bits; the default is then width - 1.
  const HandlerResult narrow =
      query(service, R"({"arch": "cb", "width": 4, "ops": 100})");
  EXPECT_TRUE(narrow.ok) << narrow.message;
  const HandlerResult same =
      query(service, R"({"arch": "cb", "width": 4, "ops": 100, "skip": 3})");
  ASSERT_TRUE(same.ok) << same.message;
  EXPECT_EQ(stats_bytes(narrow.result_json), stats_bytes(same.result_json));

  for (const int skip : {0, 4, 5}) {
    std::string error;
    const std::optional<RequestParams> bad = Service::parse(
        query_request(R"({"arch": "cb", "width": 4, "ops": 100, "skip": )" +
                      std::to_string(skip) + "}"),
        error);
    EXPECT_FALSE(bad.has_value()) << "skip " << skip;
    EXPECT_EQ(error, "skip must be in [1, width)") << "skip " << skip;
  }
}

}  // namespace
}  // namespace agingsim::serve
