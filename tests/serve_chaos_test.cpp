// Socket-chaos hardening tests (docs/SERVING.md): the deterministic
// AGINGSIM_SERVE_CHAOS fault layer (spec parsing, hook bounds, loss-free
// round trips, mid-frame disconnects) plus the server's defences against
// hostile sockets — slow-loris read deadlines, idle timeouts and the
// per-connection in-flight cap.

#include "src/serve/chaos.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/json.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "tests/temp_dir.hpp"

namespace agingsim::serve {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

/// Scoped chaos override: installs a config for the test body and always
/// restores the disabled default so sibling tests see a clean transport.
class ChaosGuard {
 public:
  explicit ChaosGuard(const ServeChaosConfig& config) {
    set_serve_chaos_for_tests(config);
  }
  ~ChaosGuard() { set_serve_chaos_for_tests(ServeChaosConfig{}); }
};

/// Scoped environment variable for from_env tests.
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvVar() { ::unsetenv(name_); }

 private:
  const char* name_;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::optional<JsonValue> call(int fd, const std::string& payload) {
  if (!write_frame_fd(fd, payload)) return std::nullopt;
  const auto frame = read_frame_fd(fd);
  if (!frame.has_value()) return std::nullopt;
  return parse_json(*frame);
}

ServerConfig chaos_server_config(const TempDir& dir) {
  ServerConfig config;
  config.socket_path = (dir.path() / "agingd.sock").string();
  config.workers = 1;
  config.admission.capacity = 8;
  config.drain_grace_ms = 500;
  config.cache_budget_bytes = 8u << 20;
  config.service.checkpoint_root = (dir.path() / "ckpt").string();
  config.service.runner.max_retries = 0;
  return config;
}

// --- spec parsing ----------------------------------------------------------

TEST(ServeChaos, FromEnvParsesFullSpec) {
  const EnvVar env("AGINGSIM_SERVE_CHAOS", "7:0.3:tbsd");
  const ServeChaosConfig cfg = ServeChaosConfig::from_env();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_DOUBLE_EQ(cfg.rate, 0.3);
  EXPECT_TRUE(cfg.torn_writes);
  EXPECT_TRUE(cfg.byte_reads);
  EXPECT_TRUE(cfg.stalls);
  EXPECT_TRUE(cfg.disconnects);
}

TEST(ServeChaos, FromEnvDefaultsToLossFreeActions) {
  const EnvVar env("AGINGSIM_SERVE_CHAOS", "11:0.5");
  const ServeChaosConfig cfg = ServeChaosConfig::from_env();
  EXPECT_TRUE(cfg.torn_writes);
  EXPECT_TRUE(cfg.byte_reads);
  EXPECT_TRUE(cfg.stalls);
  EXPECT_FALSE(cfg.disconnects) << "'d' must be opt-in: it loses frames";
}

TEST(ServeChaos, FromEnvRejectsMalformedSpecsAsDisabled) {
  const char* bad[] = {"nonsense", "1", "x:0.5", "1:weird", "1:-0.1",
                       "1:1.5", "1:0.5:q", "1:0.5:"};
  for (const char* spec : bad) {
    const EnvVar env("AGINGSIM_SERVE_CHAOS", spec);
    EXPECT_FALSE(ServeChaosConfig::from_env().enabled()) << spec;
  }
}

TEST(ServeChaos, UnsetEnvMeansDisabled) {
  ::unsetenv("AGINGSIM_SERVE_CHAOS");
  EXPECT_FALSE(ServeChaosConfig::from_env().enabled());
}

// --- hook bounds -----------------------------------------------------------

TEST(ServeChaos, HooksStayWithinTheirContracts) {
  ServeChaosConfig cfg;
  cfg.seed = 42;
  cfg.rate = 1.0;  // every draw fires
  cfg.torn_writes = true;
  cfg.byte_reads = true;
  const ChaosGuard guard(cfg);
  for (int i = 0; i < 200; ++i) {
    const std::size_t chunk = chaos_write_chunk(1000);
    EXPECT_GE(chunk, 1u);
    EXPECT_LE(chunk, 8u);
    const std::size_t clamp = chaos_read_clamp(1000);
    EXPECT_GE(clamp, 1u);
    EXPECT_LE(clamp, 3u);
  }
  // Tiny buffers pass through untouched — a 0-byte op would spin forever.
  EXPECT_EQ(chaos_write_chunk(1), 1u);
  EXPECT_EQ(chaos_read_clamp(1), 1u);
  EXPECT_EQ(chaos_write_chunk(0), 0u);
  // Disconnects are off in this config.
  EXPECT_FALSE(chaos_drop_write());
}

TEST(ServeChaos, DisabledHooksArePassthrough) {
  const ChaosGuard guard(ServeChaosConfig{});
  EXPECT_EQ(chaos_write_chunk(12345), 12345u);
  EXPECT_EQ(chaos_read_clamp(12345), 12345u);
  EXPECT_FALSE(chaos_drop_write());
}

// --- transport under chaos -------------------------------------------------

TEST(ServeChaos, LossFreeChaosRoundTripsThroughTheServer) {
  ServeChaosConfig cfg;
  cfg.seed = 7;
  cfg.rate = 1.0;  // maximum torn writes + byte reads on every op
  cfg.torn_writes = true;
  cfg.byte_reads = true;
  const ChaosGuard guard(cfg);

  TempDir dir("chaos_lossfree");
  Server server(chaos_server_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = connect_unix(server.config().socket_path);
  ASSERT_GE(fd, 0);
  for (int i = 1; i <= 10; ++i) {
    const auto reply = call(
        fd, "{\"id\": " + std::to_string(i) +
                ", \"method\": \"work\", \"params\": {\"spin_us\": 50}}");
    ASSERT_TRUE(reply.has_value()) << "request " << i;
    EXPECT_TRUE(reply->bool_or("ok", false)) << "request " << i;
    EXPECT_EQ(reply->u64_or("id", 0), static_cast<std::uint64_t>(i));
  }
  // A campaign's larger response survives 1..8-byte write chunks too.
  const auto campaign = call(
      fd,
      R"({"id": 99, "method": "campaign",
          "params": {"arch": "cb", "width": 4, "trials": 2, "ops": 64,
                     "sites": 1, "seed": 5}})");
  ASSERT_TRUE(campaign.has_value());
  EXPECT_TRUE(campaign->bool_or("ok", false));
  ::close(fd);

  server.drain();
  server.wait();
}

TEST(ServeChaos, DropWriteAbortsTheFrameMidWrite) {
  // socketpair keeps this in-process and deterministic: the writer draws a
  // chaos disconnect, emits only a prefix and shuts the socket down; the
  // reader sees a truncated stream, never a corrupt frame.
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);

  ServeChaosConfig cfg;
  cfg.seed = 3;
  cfg.rate = 1.0;  // every frame write draws the disconnect
  cfg.disconnects = true;
  const ChaosGuard guard(cfg);

  std::string error;
  EXPECT_FALSE(write_frame_fd(sv[0], R"({"id": 1})", &error));
  EXPECT_NE(error.find("chaos"), std::string::npos) << error;

  std::string read_error;
  EXPECT_FALSE(read_frame_fd(sv[1], &read_error).has_value());
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(ServeChaos, ServerDisconnectCutsOneFrameAndClosesOnlyItsConnection) {
  TempDir dir("chaos_cut");
  Server server(chaos_server_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const int bystander = connect_unix(server.config().socket_path);
  const int victim = connect_unix(server.config().socket_path);
  ASSERT_GE(bystander, 0);
  ASSERT_GE(victim, 0);

  ServeChaosConfig cfg;
  cfg.seed = 3;
  cfg.rate = 1.0;  // every frame the server writes is cut
  cfg.disconnects = true;
  const ChaosGuard guard(cfg);
  // Raw bytes: the client's own frame writer would draw a disconnect too.
  const std::string request = encode_frame(R"({"id": 1, "method": "health"})");
  ASSERT_EQ(::write(victim, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  const timeval give_up{5, 0};
  ASSERT_EQ(::setsockopt(victim, SOL_SOCKET, SO_RCVTIMEO, &give_up,
                         sizeof give_up),
            0);
  FrameDecoder decoder;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::read(victim, buf, sizeof buf)) > 0) {
    (void)decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  EXPECT_EQ(n, 0) << "the cut connection was not closed";
  EXPECT_FALSE(decoder.next().has_value()) << "a whole frame got through";
  EXPECT_TRUE(decoder.mid_frame()) << "the stream did not end mid-frame";
  pollfd pfd{bystander, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 200), 0) << "another connection was touched";
  ::close(victim);
  ::close(bystander);

  server.drain();
  server.wait();
}

// --- server defences against hostile sockets -------------------------------

TEST(ServeChaos, SlowLorisMidFrameStallIsClosedAtTheReadDeadline) {
  TempDir dir("chaos_loris");
  ServerConfig config = chaos_server_config(dir);
  config.read_deadline_ms = 150;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Send 2 of the 4 length-prefix bytes, then stall forever.
  const int loris = connect_unix(config.socket_path);
  ASSERT_GE(loris, 0);
  const char partial[2] = {0x10, 0x00};
  ASSERT_EQ(::write(loris, partial, 2), 2);

  const steady_clock::time_point t0 = steady_clock::now();
  char buf[16];
  const ssize_t n = ::read(loris, buf, sizeof buf);  // blocks until close
  const auto elapsed = steady_clock::now() - t0;
  EXPECT_LE(n, 0) << "server must close a mid-frame staller";
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "read deadline did not fire";
  ::close(loris);

  // The daemon is healthy for well-behaved clients afterwards.
  const int good = connect_unix(config.socket_path);
  ASSERT_GE(good, 0);
  const auto h = call(good, R"({"id": 1, "method": "health"})");
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->bool_or("ok", false));
  ::close(good);

  server.drain();
  server.wait();
}

TEST(ServeChaos, IdleConnectionsAreClosedWhenTimeoutConfigured) {
  TempDir dir("chaos_idle");
  ServerConfig config = chaos_server_config(dir);
  config.idle_timeout_ms = 100;
  config.read_deadline_ms = 0;  // isolate the idle path
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = connect_unix(config.socket_path);
  ASSERT_GE(fd, 0);
  // One healthy round trip, then silence: the idle timer reaps us.
  const auto h = call(fd, R"({"id": 1, "method": "health"})");
  ASSERT_TRUE(h.has_value());
  char buf[16];
  const steady_clock::time_point t0 = steady_clock::now();
  const ssize_t n = ::read(fd, buf, sizeof buf);
  EXPECT_LE(n, 0);
  EXPECT_LT(steady_clock::now() - t0, std::chrono::seconds(5));
  ::close(fd);

  server.drain();
  server.wait();
}

TEST(ServeChaos, IdleTimeoutCountsFromTheLastReply) {
  TempDir dir("chaos_idlereply");
  ServerConfig config = chaos_server_config(dir);
  config.idle_timeout_ms = 100;
  config.read_deadline_ms = 0;  // isolate the idle path
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = connect_unix(config.socket_path);
  ASSERT_GE(fd, 0);
  // A request that runs past the window: the connection is not idle while
  // it is in flight, and goes idle once its reply is out.
  const auto w = call(
      fd, R"({"id": 1, "method": "work", "params": {"spin_us": 300000}})");
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(w->bool_or("ok", false));
  pollfd pfd{fd, POLLIN, 0};
  char buf[16];
  const bool closed =
      ::poll(&pfd, 1, 3000) == 1 && ::read(fd, buf, sizeof buf) <= 0;
  EXPECT_TRUE(closed) << "still open 3 s after the reply";
  ::close(fd);

  server.drain();
  server.wait();
}

TEST(ServeChaos, InFlightCapRejectsPipeliningPastTheLimit) {
  TempDir dir("chaos_inflight");
  ServerConfig config = chaos_server_config(dir);
  config.max_inflight_per_conn = 1;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = connect_unix(config.socket_path);
  ASSERT_GE(fd, 0);
  // Pipeline two slow requests without reading. The first occupies the
  // connection's single in-flight slot; the second is rejected at the
  // connection, before admission.
  ASSERT_TRUE(write_frame_fd(
      fd, R"({"id": 1, "method": "work", "params": {"spin_us": 300000}})"));
  ASSERT_TRUE(write_frame_fd(
      fd, R"({"id": 2, "method": "work", "params": {"spin_us": 300000}})"));

  bool saw_ok = false;
  bool saw_cap_reject = false;
  for (int i = 0; i < 2; ++i) {
    const auto frame = read_frame_fd(fd);
    ASSERT_TRUE(frame.has_value());
    const auto doc = parse_json(*frame);
    ASSERT_TRUE(doc.has_value());
    if (doc->u64_or("id", 0) == 1) {
      EXPECT_TRUE(doc->bool_or("ok", false));
      saw_ok = true;
    } else {
      EXPECT_EQ(doc->u64_or("id", 0), 2u);
      EXPECT_FALSE(doc->bool_or("ok", true));
      const JsonValue* err = doc->find("error");
      ASSERT_NE(err, nullptr);
      EXPECT_EQ(err->str_or("code", ""), "overloaded");
      EXPECT_GT(err->i64_or("retry_after_ms", 0), 0);
      saw_cap_reject = true;
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_cap_reject);

  // The slot frees once the worker finishes; that decrement lands just
  // after the reply is written, so allow a few retries.
  bool recovered = false;
  for (int attempt = 0; attempt < 50 && !recovered; ++attempt) {
    const auto again = call(
        fd, R"({"id": 3, "method": "work", "params": {"spin_us": 50}})");
    ASSERT_TRUE(again.has_value());
    if (again->bool_or("ok", false)) {
      recovered = true;
    } else {
      std::this_thread::sleep_for(milliseconds(5));
    }
  }
  EXPECT_TRUE(recovered) << "in-flight slot never freed";
  ::close(fd);

  server.drain();
  server.wait();
}

TEST(ServeChaos, PoisonedStreamClosesOnlyThatConnection) {
  TempDir dir("chaos_poison");
  Server server(chaos_server_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // An oversized length prefix poisons the stream; the server closes it.
  const int evil = connect_unix(server.config().socket_path);
  ASSERT_GE(evil, 0);
  const unsigned char prefix[4] = {0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_EQ(::write(evil, prefix, 4), 4);
  char buf[16];
  EXPECT_LE(::read(evil, buf, sizeof buf), 0);
  ::close(evil);

  const int good = connect_unix(server.config().socket_path);
  ASSERT_GE(good, 0);
  const auto h = call(good, R"({"id": 1, "method": "health"})");
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->bool_or("ok", false));
  ::close(good);

  server.drain();
  server.wait();
}

}  // namespace
}  // namespace agingsim::serve
