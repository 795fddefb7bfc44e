// Keeps docs/OBSERVABILITY.md's tables complete: the metric table (runs
// every instrumented subsystem once, snapshots the metrics registry, and
// fails when a registered name is missing from the table) and the
// environment-variable table (must list exactly the AGINGSIM_* names the
// sources quote).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "src/fault/campaign.hpp"
#include "src/mc/mc_campaign.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/chaos.hpp"
#include "src/serve/server.hpp"
#include "src/serve/service.hpp"
#include "tests/temp_dir.hpp"

namespace agingsim {
namespace {

namespace fs = std::filesystem;

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(' ');
  if (b == std::string::npos) return {};
  return s.substr(b, s.find_last_not_of(' ') - b + 1);
}

/// Splits on commas outside `{...}` groups.
std::vector<std::string> split_names(const std::string& cell) {
  std::vector<std::string> out;
  std::string cur;
  int depth = 0;
  for (const char c : cell) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(trim(cur));
  return out;
}

/// Full metric names of the "What is instrumented today" table: each row's
/// backticked prefix joined to each name of its Metrics cell, with the †
/// mark and trailing "(...)" notes dropped and one "{a,b}" group expanded.
std::set<std::string> documented_metrics(const std::string& doc) {
  std::set<std::string> names;
  const auto begin = doc.find("### What is instrumented today");
  if (begin == std::string::npos) return names;
  std::istringstream lines(doc.substr(begin, doc.find("\n## ", begin) - begin));
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    const auto prefix_end = line.find('`', 3);
    const std::string prefix = line.substr(3, prefix_end - 3);
    const auto cell_begin = line.find('|', prefix_end) + 1;
    const std::string cell =
        line.substr(cell_begin, line.find('|', cell_begin) - cell_begin);
    for (std::string name : split_names(cell)) {
      for (auto dagger = name.find("†"); dagger != std::string::npos;
           dagger = name.find("†")) {
        name.erase(dagger, std::string("†").size());
      }
      name = trim(name.substr(0, name.find(" (")));
      if (name.empty() || name == "—") continue;
      const auto open = name.find('{');
      if (open == std::string::npos) {
        names.insert(prefix + "." + name);
        continue;
      }
      const auto close = name.find('}', open);
      const std::string head = name.substr(0, open);
      const std::string tail = name.substr(close + 1);
      std::istringstream alts(name.substr(open + 1, close - open - 1));
      for (std::string alt; std::getline(alts, alt, ',');) {
        names.insert(prefix + "." + head + trim(alt) + tail);
      }
    }
  }
  return names;
}

const fs::path kSourceDir = AGINGSIM_SOURCE_DIR;

/// The whole of the file at `path`, or "" when it cannot be read.
std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Variable names of the "Environment variables (complete table)" rows.
std::set<std::string> documented_env_vars(const std::string& doc) {
  std::set<std::string> names;
  const auto begin = doc.find("## Environment variables (complete table)");
  if (begin == std::string::npos) return names;
  std::istringstream lines(doc.substr(begin, doc.find("\n## ", begin) - begin));
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("| `AGINGSIM_", 0) != 0) continue;
    names.insert(line.substr(3, line.find('`', 3) - 3));
  }
  return names;
}

/// Every quoted "AGINGSIM_..." literal in the files under src/, tools/ and
/// bench/: the variables the programs read, or set for a child.
std::set<std::string> env_vars_in_sources() {
  std::set<std::string> names;
  const std::string quoted = "\"AGINGSIM_";
  for (const char* dir : {"src", "tools", "bench"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(kSourceDir / dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string text = read_file(entry.path());
      for (auto pos = text.find(quoted); pos != std::string::npos;
           pos = text.find(quoted, pos + 1)) {
        auto end = pos + quoted.size();
        while (end < text.size() &&
               (std::isupper(static_cast<unsigned char>(text[end])) ||
                std::isdigit(static_cast<unsigned char>(text[end])) ||
                text[end] == '_')) {
          ++end;
        }
        if (end > pos + quoted.size()) {
          names.insert(text.substr(pos + 1, end - pos - 1));
        }
      }
    }
  }
  return names;
}

/// Registers every subsystem's metrics by running each one briefly.
void touch_every_subsystem(const fs::path& dir) {
  // sim and sim.batch: each step kernel once. The campaigns below run the
  // default kernel (batch) or the corner kernel, never the scalar ones.
  const MultiplierNetlist small = build_array_multiplier(4);
  for (const SimKernel kernel : {SimKernel::kBatch, SimKernel::kSparse}) {
    compute_op_trace(small, bench::tech(), bench::workload(4, 8),
                     TraceOptions{.kernel = kernel});
  }

  // sim.corner, pool, mc, runner, checkpoint.
  mc::McCampaignConfig mc_cfg;
  mc_cfg.width = 4;
  mc_cfg.arches = {MultiplierArch::kColumnBypass};
  mc_cfg.trials = 4;
  mc_cfg.block = 2;
  mc_cfg.ops = 16;
  const mc::McCampaign campaign(bench::tech(), mc_cfg);
  runtime::CheckpointStore store(dir / "mc", campaign.config_digest());
  store.load();
  runtime::RunnerConfig runner_cfg;
  runner_cfg.checkpoints = &store;
  runtime::RobustRunner runner(runner_cfg);
  campaign.run(mc::McRunOptions{.runner = &runner});

  // campaign.
  const MultiplierNetlist mult = build_column_bypass_multiplier(16);
  FaultCampaignConfig fault_cfg;
  fault_cfg.trials = 2;
  FaultCampaign faults(mult, bench::tech(), VlSystemConfig{}, fault_cfg);
  faults.run(bench::workload(16, 40));

  // serve: the service, its cache, the transport's chaos hooks, and the
  // server's connection path.
  serve::AgedStateCache cache(1 << 20);
  cache.get(1);
  serve::Service service(serve::ServiceConfig{}, &cache);
  serve::Request query;
  query.method = "query";
  std::string parse_error;
  const auto params = serve::Service::parse(query, parse_error);
  ASSERT_TRUE(params.has_value()) << parse_error;
  service.handle(query.id, *params, runtime::CancelToken{});
  serve::ServeChaosConfig chaos;
  chaos.rate = 1.0;
  chaos.torn_writes = chaos.byte_reads = chaos.stalls = chaos.disconnects =
      true;
  serve::set_serve_chaos_for_tests(chaos);
  serve::chaos_write_chunk(16);
  serve::chaos_read_clamp(16);
  serve::chaos_drop_write();
  serve::set_serve_chaos_for_tests(serve::ServeChaosConfig{});

  serve::ServerConfig server_cfg;
  server_cfg.socket_path = (dir / "agingd.sock").string();
  server_cfg.workers = 1;
  server_cfg.drain_grace_ms = 500;
  serve::Server server(server_cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                server_cfg.socket_path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  // The accept path registers the server's metrics.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto registered = [] {
    for (const obs::MetricValue& m : obs::metrics_snapshot()) {
      if (m.name == "serve.connections") return true;
    }
    return false;
  };
  while (!registered() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(fd);
  server.drain();
  server.wait();
}

TEST(MetricsDocTest, EveryRegisteredMetricIsInObservabilityTable) {
  const fs::path dir = temp_path("metrics_doc");
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Some sites register their handles only while recording is on.
  obs::set_metrics_enabled(true);
  touch_every_subsystem(dir);
  obs::set_metrics_enabled(false);
  fs::remove_all(dir);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  const std::string doc = read_file(kSourceDir / "docs" / "OBSERVABILITY.md");
  ASSERT_FALSE(doc.empty()) << "docs/OBSERVABILITY.md not found";
  const std::set<std::string> documented = documented_metrics(doc);

  std::set<std::string> registered;
  for (const obs::MetricValue& m : obs::metrics_snapshot()) {
    // Names other tests of this binary register for themselves.
    if (m.name.rfind("obs_test.", 0) == 0) continue;
    registered.insert(m.name);
  }
  // Every subsystem was reached, or the check below proves little.
  for (const char* prefix :
       {"sim.", "sim.batch.", "sim.corner.", "pool.", "mc.", "runner.",
        "checkpoint.", "campaign.", "serve.queries", "serve.cache_",
        "serve.chaos.", "serve.client.", "serve.connections"}) {
    bool seen = false;
    for (const std::string& name : registered) {
      seen = seen || name.rfind(prefix, 0) == 0;
    }
    EXPECT_TRUE(seen) << "no metric registered under " << prefix;
  }
  for (const std::string& name : registered) {
    EXPECT_TRUE(documented.count(name) == 1)
        << name << " is registered but missing from the metric table of "
        << "docs/OBSERVABILITY.md";
  }
}

TEST(MetricsDocTest, EnvTableListsExactlyTheVariablesTheSourcesQuote) {
  const std::string doc = read_file(kSourceDir / "docs" / "OBSERVABILITY.md");
  ASSERT_FALSE(doc.empty()) << "docs/OBSERVABILITY.md not found";
  const std::set<std::string> documented = documented_env_vars(doc);
  const std::set<std::string> quoted = env_vars_in_sources();
  ASSERT_FALSE(quoted.empty())
      << "no AGINGSIM_* literal found under " << kSourceDir;
  for (const std::string& name : quoted) {
    EXPECT_EQ(documented.count(name), 1u)
        << name << " is quoted under src/, tools/ or bench/ but missing "
        << "from the environment table of docs/OBSERVABILITY.md";
  }
  for (const std::string& name : documented) {
    EXPECT_EQ(quoted.count(name), 1u)
        << name << " is in the environment table of docs/OBSERVABILITY.md "
        << "but nothing under src/, tools/ or bench/ quotes it";
  }
}

}  // namespace
}  // namespace agingsim
