// End-to-end tests of the agingd server over a real Unix-domain socket
// (src/serve/server.hpp): control-plane availability under load, admission
// rejections with retry hints, per-request deadlines, drain semantics,
// campaign determinism across calls, identical query replies across
// concurrent clients, and the event loop's promises — a
// client that never reads pins no worker and cannot hold up a drain,
// replies past the unsent-output bound keep flowing, connections cost no
// threads, and running out of descriptors does not spin the loop.

#include "src/serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/serve/json.hpp"
#include "src/serve/protocol.hpp"
#include "tests/temp_dir.hpp"

namespace agingsim::serve {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

bool connect_to(int fd, const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                socket_path.c_str());
  return ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr) == 0;
}

/// Minimal blocking client: one connection, frame-per-call.
class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ >= 0 && !connect_to(fd_, socket_path)) close();
  }
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  bool send(const std::string& payload) {
    return write_frame_fd(fd_, payload);
  }

  std::optional<JsonValue> recv() {
    const auto frame = read_frame_fd(fd_);
    if (!frame.has_value()) return std::nullopt;
    return parse_json(*frame);
  }

  std::optional<JsonValue> call(const std::string& payload) {
    if (!send(payload)) return std::nullopt;
    return recv();
  }

  /// Like call(), but hands back the raw response bytes for byte-identity
  /// checks.
  std::optional<std::string> call_raw(const std::string& payload) {
    if (!send(payload)) return std::nullopt;
    return read_frame_fd(fd_);
  }

 private:
  int fd_ = -1;
};

std::string error_code_of(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  return error != nullptr ? error->str_or("code", "") : "";
}

/// Turns `fd` into a client that pipelines `work` frames (spin_us 0) and
/// never reads: it sends until its socket stays unwritable for 300 ms,
/// i.e. until the server stops taking its requests. False if it never
/// blocks.
bool pipeline_until_blocked(int fd) {
  if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    return false;
  }
  const std::string frame =
      encode_frame(R"({"id": 1, "method": "work", "params": {"spin_us": 0}})");
  std::size_t off = 0;
  for (int frames = 0; frames < 100'000;) {
    const ssize_t n =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      if (off == frame.size()) {
        off = 0;
        ++frames;
      }
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 300) == 0) return true;
  }
  return false;
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// `count` pipelined `metrics` requests with ids 1..count, as one buffer.
std::string metrics_burst(std::size_t count) {
  std::string burst;
  for (std::size_t id = 1; id <= count; ++id) {
    burst += encode_frame(R"({"id": )" + std::to_string(id) +
                          R"(, "method": "metrics"})");
  }
  return burst;
}

/// Reads up to `count` frames with plain reads (a chaos-clamped read would
/// take minutes over this much output). Stops early at EOF, at a read
/// error, or when no byte arrives for `timeout_ms`.
std::vector<std::string> read_frames(int fd, std::size_t count,
                                     int timeout_ms) {
  std::vector<std::string> frames;
  FrameDecoder decoder;
  std::vector<char> buf(64u << 10);
  while (frames.size() < count) {
    if (std::optional<std::string> frame = decoder.next()) {
      frames.push_back(std::move(*frame));
      continue;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) != 1) break;
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n <= 0 ||
        !decoder.feed(std::string_view(buf.data(),
                                       static_cast<std::size_t>(n)))) {
      break;
    }
  }
  return frames;
}

std::vector<std::int64_t> ids_of(const std::vector<std::string>& frames) {
  std::vector<std::int64_t> ids;
  for (const std::string& frame : frames) {
    const std::optional<JsonValue> reply = parse_json(frame);
    ids.push_back(reply.has_value() ? reply->i64_or("id", -1) : -1);
  }
  return ids;
}

/// Bytes a fresh Unix stream socket takes, in `chunk`-byte writes, before
/// its send side blocks.
std::size_t socket_capacity(std::size_t chunk) {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv) != 0) return 0;
  const std::string bytes(chunk, 'x');
  std::size_t total = 0;
  for (;;) {
    const ssize_t n = ::send(sv[0], bytes.data(), chunk, 0);
    if (n <= 0) break;
    total += static_cast<std::size_t>(n);
  }
  ::close(sv[0]);
  ::close(sv[1]);
  return total;
}

double cpu_ms() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

std::size_t count_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       fs::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Spins until `pred` holds or ~2 s elapse.
template <typename Pred>
bool eventually(Pred pred) {
  const steady_clock::time_point give_up = steady_clock::now() + milliseconds(2000);
  while (steady_clock::now() < give_up) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(2));
  }
  return pred();
}

/// Every registered metric's value by name.
std::map<std::string, std::uint64_t> counter_values() {
  std::map<std::string, std::uint64_t> counts;
  for (const obs::MetricValue& m : obs::metrics_snapshot()) {
    counts[m.name] = m.value;
  }
  return counts;
}

/// The reply bytes of request `id` refused as bad_request with `message`.
std::string bad_request_reply(int id, std::string_view message) {
  return "{\"id\": " + std::to_string(id) +
         ", \"ok\": false, \"error\": {\n"
         "  \"code\": \"bad_request\",\n"
         "  \"message\": \"" +
         std::string(message) + "\"\n}}";
}

class ServeServerTest : public ::testing::Test {
 protected:
  ServerConfig base_config(const TempDir& dir) {
    ServerConfig config;
    config.socket_path = (dir.path() / "agingd.sock").string();
    config.workers = 1;
    config.admission.capacity = 4;
    config.default_deadline_ms = 30'000;
    config.drain_grace_ms = 500;
    config.cache_budget_bytes = 8u << 20;
    config.service.checkpoint_root = (dir.path() / "ckpt").string();
    config.service.runner.max_retries = 0;
    return config;
  }
};

TEST_F(ServeServerTest, ControlPlaneAnswersInline) {
  TempDir dir("serve_control");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  ASSERT_TRUE(client.connected());

  const auto health = client.call(R"({"id": 1, "method": "health"})");
  ASSERT_TRUE(health.has_value());
  EXPECT_TRUE(health->bool_or("ok", false));
  EXPECT_EQ(health->find("result")->str_or("status", ""), "ok");

  const auto status = client.call(R"({"id": 2, "method": "status"})");
  ASSERT_TRUE(status.has_value());
  const JsonValue* result = status->find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->i64_or("queue_depth", -1), 0);
  EXPECT_EQ(result->i64_or("degradation_tier", -1), 0);
  EXPECT_NE(result->find("cache"), nullptr);

  const auto metrics = client.call(R"({"id": 3, "method": "metrics"})");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_TRUE(metrics->bool_or("ok", false));

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, WorkRoundTripAndBadRequestKeepsConnectionAlive) {
  TempDir dir("serve_work");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  const auto work = client.call(
      R"({"id": 1, "method": "work", "params": {"spin_us": 500}})");
  ASSERT_TRUE(work.has_value());
  EXPECT_TRUE(work->bool_or("ok", false));
  EXPECT_EQ(work->find("result")->i64_or("spun_us", 0), 500);
  EXPECT_GT(work->find("result")->i64_or("iters", 0), 0);

  // Invalid params fail only that request, not the stream.
  const auto bad = client.call(
      R"({"id": 2, "method": "query", "params": {"width": 99}})");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->bool_or("ok", true));
  EXPECT_EQ(error_code_of(*bad), "bad_request");

  const auto again = client.call(R"({"id": 3, "method": "health"})");
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->bool_or("ok", false));

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, QueryCacheMissThenHit) {
  TempDir dir("serve_query");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  const std::string query =
      R"({"id": 1, "method": "query",
          "params": {"arch": "cb", "width": 8, "years": 3, "ops": 200}})";
  const auto miss = client.call(query);
  ASSERT_TRUE(miss.has_value());
  ASSERT_TRUE(miss->bool_or("ok", false)) << error_code_of(*miss);
  EXPECT_FALSE(miss->find("result")->bool_or("cache_hit", true));

  const auto hit = client.call(query);
  ASSERT_TRUE(hit.has_value());
  ASSERT_TRUE(hit->bool_or("ok", false));
  EXPECT_TRUE(hit->find("result")->bool_or("cache_hit", false));
  // The aged corner is the same either way.
  EXPECT_EQ(miss->find("result")->str_or("corner_digest", "a"),
            hit->find("result")->str_or("corner_digest", "b"));

  server.drain();
  server.wait();
}

/// A reply with its "cache_hit" line cut out.
std::string without_cache_hit(std::string reply) {
  const std::size_t at = reply.find("\"cache_hit\"");
  if (at == std::string::npos) return reply;
  const std::size_t line = reply.rfind('\n', at);
  reply.erase(line, reply.find('\n', at) - line);
  return reply;
}

TEST_F(ServeServerTest, ConcurrentQueriesGetIdenticalRepliesPerKey) {
  TempDir dir("serve_concurrent");
  ServerConfig config = base_config(dir);
  config.workers = 4;
  config.admission.capacity = 64;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Four circuits, two of them aged. A request's id names its key, so the
  // replies for one key may differ only in "cache_hit". Every client walks
  // the keys in the same order, so the workers meet on each circuit's
  // first use and on each corner's refill.
  const std::vector<std::string> keys = {
      R"("arch": "am", "width": 8)",
      R"("arch": "cb", "width": 8, "years": 2)",
      R"("arch": "rb", "width": 8, "years": 2)",
      R"("arch": "cb", "width": 4)"};
  constexpr std::size_t kClients = 8;
  constexpr int kRounds = 2;
  std::vector<std::vector<std::vector<std::string>>> replies(
      kClients, std::vector<std::vector<std::string>>(keys.size()));
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.config().socket_path);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          const auto reply = client.call_raw(
              R"({"id": )" + std::to_string(k) +
              R"(, "method": "query", "params": {)" + keys[k] +
              R"(, "ops": 200}})");
          replies[c][k].push_back(reply.value_or("no reply"));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t k = 0; k < keys.size(); ++k) {
    SCOPED_TRACE(keys[k]);
    const std::string want = without_cache_hit(replies[0][k][0]);
    EXPECT_NE(want.find("\"ok\": true"), std::string::npos) << want;
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const std::string& reply : replies[c][k]) {
        EXPECT_EQ(without_cache_hit(reply), want) << "client " << c;
      }
    }
  }

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, MalformedQueryIsAnsweredAtTheDoor) {
  TempDir dir("serve_badquery");
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  const auto reply = client.call_raw(
      R"({"id": 4, "method": "query", "params": {"width": 99}})");
  // The bytes a worker sent when malformed queries were still queued.
  EXPECT_EQ(reply.value_or("no reply"),
            bad_request_reply(4, "width must be in [2, 32]"));
  const auto valid = client.call(
      R"({"id": 5, "method": "query", "params": {"width": 4, "ops": 50}})");
  ASSERT_TRUE(valid.has_value());
  EXPECT_TRUE(valid->bool_or("ok", false));
  server.drain();
  server.wait();

  std::map<std::string, std::uint64_t> counts = counter_values();
  obs::set_metrics_enabled(metrics_were_on);
  EXPECT_EQ(counts["serve.bad_request"], 1u);
  EXPECT_EQ(counts["serve.accepted"], 1u);
  EXPECT_EQ(counts["serve.queries"], 1u);
  EXPECT_EQ(counts["serve.completed"], 1u);
  EXPECT_EQ(counts["serve.failed"], 0u);
}

// Campaign and work params are checked at the door too: behind a tier-2
// backlog that sheds valid campaigns, a malformed campaign or work request
// is answered bad_request at once, with the bytes an idle daemon's worker
// sent, and takes no queue slot.
TEST_F(ServeServerTest, MalformedRequestsAreAnsweredAheadOfABacklog) {
  TempDir dir("serve_door_backlog");
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  ServerConfig config = base_config(dir);
  config.admission.capacity = 5;  // tier 2 at depth >= 4
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // One spin runs and four wait; each lasts until the drain cancels it.
  const std::string spin =
      R"({"id": 1, "method": "work", "params": {"spin_us": 9000000}})";
  std::vector<std::unique_ptr<Client>> busy;
  for (int i = 0; i < 5; ++i) {
    busy.push_back(std::make_unique<Client>(config.socket_path));
    ASSERT_TRUE(busy.back()->send(spin));
    ASSERT_TRUE(eventually([&] { return server.in_flight() == 1; }));
  }
  ASSERT_TRUE(eventually([&] { return server.queue_depth() == 4; }));
  ASSERT_TRUE(eventually(
      [] { return counter_values()["serve.work_requests"] == 1; }));

  Client client(config.socket_path);
  const auto shed = client.call(
      R"({"id": 6, "method": "campaign", "params": {"width": 4}})");
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(error_code_of(*shed), "shed_batch");
  EXPECT_EQ(client
                .call_raw(R"({"id": 7, "method": "campaign",
                              "params": {"trials": 0}})")
                .value_or("no reply"),
            bad_request_reply(7, "trials must be in [1, 4096]"));
  const steady_clock::time_point t0 = steady_clock::now();
  EXPECT_EQ(client
                .call_raw(R"({"id": 8, "method": "work",
                              "params": {"spin_us": -1}})")
                .value_or("no reply"),
            bad_request_reply(8, "spin_us must be in [0, 10000000]"));
  EXPECT_LT(steady_clock::now() - t0, milliseconds(1000))
      << "the malformed work request waited for the backlog";
  EXPECT_EQ(server.queue_depth(), 4u);

  std::map<std::string, std::uint64_t> counts = counter_values();
  server.drain();
  server.wait();
  obs::set_metrics_enabled(metrics_were_on);
  EXPECT_EQ(counts["serve.bad_request"], 2u);
  EXPECT_EQ(counts["serve.shed_batch"], 1u);
  EXPECT_EQ(counts["serve.accepted"], 5u);
  EXPECT_EQ(counts["serve.failed"], 0u);
  EXPECT_EQ(counts["serve.campaigns"], 0u);
  EXPECT_EQ(counts["serve.work_requests"], 1u);
}

// The door parse comes before the per-connection in-flight cap: past the
// cap a malformed request still gets bad_request, not a retry hint.
TEST_F(ServeServerTest, MalformedRequestPastTheInflightCapIsABadRequest) {
  TempDir dir("serve_door_cap");
  ServerConfig config = base_config(dir);
  config.max_inflight_per_conn = 1;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(config.socket_path);
  ASSERT_TRUE(client.send(
      R"({"id": 1, "method": "work", "params": {"spin_us": 9000000}})"));
  ASSERT_TRUE(eventually([&] { return server.in_flight() == 1; }));
  EXPECT_EQ(client
                .call_raw(R"({"id": 2, "method": "campaign",
                              "params": {"trials": 0}})")
                .value_or("no reply"),
            bad_request_reply(2, "trials must be in [1, 4096]"));
  const auto capped = client.call(
      R"({"id": 3, "method": "work", "params": {"spin_us": 0}})");
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(error_code_of(*capped), "overloaded");
  server.drain();
  server.wait();
}

// A request refused at the door spends no quota token: with a one-token
// bucket, malformed requests of all three methods leave the token to the
// client's first valid request.
TEST_F(ServeServerTest, MalformedRequestsSpendNoQuotaToken) {
  TempDir dir("serve_door_quota");
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  ServerConfig config = base_config(dir);
  config.admission.fairness.quota_rate_per_s = 0.001;
  config.admission.fairness.quota_burst = 1.0;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(config.socket_path);
  for (const char* malformed : {R"("query", "params": {"width": 99})",
                                R"("campaign", "params": {"trials": 0})",
                                R"("work", "params": {"spin_us": -1})"}) {
    const auto reply = client.call(R"({"id": 1, "client_id": "q", "method": )" +
                                   std::string(malformed) + "}");
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(error_code_of(*reply), "bad_request") << malformed;
  }
  const std::string work =
      R"({"id": 2, "client_id": "q", "method": "work",
          "params": {"spin_us": 0}})";
  const auto spent = client.call(work);
  ASSERT_TRUE(spent.has_value());
  EXPECT_TRUE(spent->bool_or("ok", false)) << error_code_of(*spent);
  const auto refused = client.call(work);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(error_code_of(*refused), "quota_exceeded");
  server.drain();
  server.wait();

  std::map<std::string, std::uint64_t> counts = counter_values();
  obs::set_metrics_enabled(metrics_were_on);
  EXPECT_EQ(counts["serve.bad_request"], 3u);
  EXPECT_EQ(counts["serve.rejected_quota"], 1u);
  EXPECT_EQ(counts["serve.accepted"], 1u);
  EXPECT_EQ(counts["serve.failed"], 0u);
  EXPECT_EQ(counts["serve.campaigns"], 0u);
  EXPECT_EQ(counts["serve.work_requests"], 1u);
}

TEST_F(ServeServerTest, EarlyDisconnectDoesNotCorruptOtherConnections) {
  TempDir dir("serve_discon");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // A client queues slow work and disconnects before the reply. The
  // worker posts its late reply to the loop by connection id, and the loop
  // writes it to the ghost's own connection or drops it once that is
  // closed — never to an fd number the kernel re-issued to a newer
  // connection, which would splice the ghost's response into that
  // client's stream.
  {
    Client ghost(server.config().socket_path);
    ASSERT_TRUE(ghost.connected());
    ASSERT_TRUE(ghost.send(
        R"({"id": 777, "method": "work", "params": {"spin_us": 300000}})"));
  }  // ~Client closes the socket immediately

  Client other(server.config().socket_path);
  ASSERT_TRUE(other.connected());
  for (int i = 0; i < 50; ++i) {
    const std::int64_t id = 1000 + i;
    const auto reply = other.call("{\"id\": " + std::to_string(id) +
                                  ", \"method\": \"health\"}");
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->i64_or("id", -1), id)
        << "cross-connection frame leaked into this stream";
  }

  // The orphaned job finishes (its reply is dropped) without killing the
  // server — no SIGPIPE, no write into a reused fd.
  ASSERT_TRUE(eventually([&] { return server.in_flight() == 0; }));
  const auto h = other.call(R"({"id": 9999, "method": "health"})");
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->bool_or("ok", false));

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, FailedStartLeaksNoFileDescriptors) {
  TempDir dir("serve_startfail");
  ServerConfig config = base_config(dir);
  // bind() fails: the parent directory does not exist.
  config.socket_path = (dir.path() / "missing" / "agingd.sock").string();
  const auto count_fds = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         fs::directory_iterator("/proc/self/fd")) {
      ++n;
    }
    return n;
  };
  const std::size_t before = count_fds();
  Server server(config);
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_NE(error, "");
  EXPECT_EQ(count_fds(), before)
      << "start() failure must close the wake pipe and listen socket";
}

TEST_F(ServeServerTest, OverloadRejectsWithRetryAfterWhileHealthAnswers) {
  TempDir dir("serve_overload");
  ServerConfig config = base_config(dir);
  config.admission.capacity = 2;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Occupy the single worker, then fill the 2-slot queue.
  const std::string slow =
      R"({"id": 1, "method": "work", "params": {"spin_us": 800000}})";
  std::vector<std::unique_ptr<Client>> busy;
  busy.push_back(std::make_unique<Client>(config.socket_path));
  ASSERT_TRUE(busy.back()->send(slow));
  ASSERT_TRUE(eventually([&] { return server.in_flight() == 1; }));
  for (int i = 0; i < 2; ++i) {
    busy.push_back(std::make_unique<Client>(config.socket_path));
    ASSERT_TRUE(busy.back()->send(slow));
  }
  ASSERT_TRUE(eventually([&] { return server.queue_depth() == 2; }));

  // The queue is full: the next request is turned away with a hint.
  Client rejected(config.socket_path);
  const auto reply = rejected.call(slow);
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->bool_or("ok", true));
  EXPECT_EQ(error_code_of(*reply), "overloaded");
  EXPECT_GE(reply->find("error")->i64_or("retry_after_ms", 0),
            kRetryAfterMinMs);

  // Control plane still answers while the data plane is saturated.
  Client health(config.socket_path);
  const auto h = health.call(R"({"id": 9, "method": "health"})");
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->bool_or("ok", false));

  // The occupied workers eventually drain and answer the queued requests.
  for (auto& c : busy) {
    const auto r = c->recv();
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->bool_or("ok", false));
  }
  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, Tier1ShedsCacheRefillQueries) {
  TempDir dir("serve_tier1");
  ServerConfig config = base_config(dir);
  config.admission.capacity = 4;  // tier 1 at depth >= 2
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string slow =
      R"({"id": 1, "method": "work", "params": {"spin_us": 800000}})";
  std::vector<std::unique_ptr<Client>> busy;
  busy.push_back(std::make_unique<Client>(config.socket_path));
  ASSERT_TRUE(busy.back()->send(slow));
  ASSERT_TRUE(eventually([&] { return server.in_flight() == 1; }));
  for (int i = 0; i < 2; ++i) {
    busy.push_back(std::make_unique<Client>(config.socket_path));
    ASSERT_TRUE(busy.back()->send(slow));
  }
  ASSERT_TRUE(eventually([&] { return server.queue_depth() == 2; }));

  // A cold-cache query would trigger an expensive aging recompute: shed.
  Client shed(config.socket_path);
  const auto reply = shed.call(
      R"({"id": 5, "method": "query", "params": {"width": 8, "years": 1}})");
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->bool_or("ok", true));
  EXPECT_EQ(error_code_of(*reply), "shed_refill");

  for (auto& c : busy) {
    ASSERT_TRUE(c->recv().has_value());
  }
  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, DeadlineCancelsSlowWorkAsTimeout) {
  TempDir dir("serve_deadline");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  const steady_clock::time_point t0 = steady_clock::now();
  const auto reply = client.call(
      R"({"id": 1, "method": "work", "deadline_ms": 100,
          "params": {"spin_us": 8000000}})");
  const auto elapsed = steady_clock::now() - t0;
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->bool_or("ok", true));
  EXPECT_EQ(error_code_of(*reply), "timeout");
  EXPECT_LT(elapsed, std::chrono::seconds(4))
      << "deadline did not cancel the spin";

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, DrainRejectsNewWorkThenJoinsCleanly) {
  TempDir dir("serve_drain");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::string socket_path = server.config().socket_path;

  Client client(socket_path);
  ASSERT_TRUE(client.connected());
  // A round-trip first: connect() alone only lands in the kernel backlog,
  // and a drained listener never accepts it — the connection must be
  // established server-side to test the drain window.
  ASSERT_TRUE(client.call(R"({"id": 0, "method": "health"})").has_value());
  server.drain();
  EXPECT_TRUE(server.draining());

  // The established connection keeps its read loop until wait(), but new
  // work is refused at admission.
  const auto reply = client.call(
      R"({"id": 1, "method": "work", "params": {"spin_us": 100}})");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(error_code_of(*reply), "draining");
  // Health still answers during the drain window.
  const auto h = client.call(R"({"id": 2, "method": "health"})");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->find("result")->str_or("status", ""), "draining");

  server.wait();
  EXPECT_FALSE(fs::exists(socket_path)) << "socket file must be unlinked";
}

TEST_F(ServeServerTest, ShutdownMethodDrainsTheServer) {
  TempDir dir("serve_shutdown");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  const auto reply = client.call(R"({"id": 1, "method": "shutdown"})");
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->bool_or("ok", false));
  EXPECT_TRUE(eventually([&] { return server.draining(); }));
  server.wait();
}

TEST_F(ServeServerTest, CampaignResponsesAreDeterministicAcrossCalls) {
  TempDir dir("serve_campaign");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string campaign =
      R"({"id": 1, "method": "campaign",
          "params": {"arch": "cb", "width": 4, "trials": 3, "ops": 64,
                     "sites": 1, "seed": 77}})";
  Client client(server.config().socket_path);
  const auto first_raw = client.call_raw(campaign);
  ASSERT_TRUE(first_raw.has_value());
  const auto first = parse_json(*first_raw);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->bool_or("ok", false)) << error_code_of(*first);
  const JsonValue* result = first->find("result");
  ASSERT_NE(result, nullptr);
  const std::string digest = result->str_or("campaign_digest", "");
  EXPECT_EQ(digest.size(), 16u);
  // The second call restores every unit from the checkpoint store yet
  // must produce a byte-identical response (same id on purpose) — the
  // property the CI kill/resume drill asserts across a real SIGKILL.
  const auto second_raw = client.call_raw(campaign);
  ASSERT_TRUE(second_raw.has_value());
  EXPECT_EQ(*first_raw, *second_raw);

  // The checkpoint store landed under the configured root.
  EXPECT_TRUE(fs::exists(fs::path(server.config().service.checkpoint_root) /
                         ("ck-" + digest)));

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, NeverReadingClientPinsNoWorker) {
  TempDir dir("serve_hog");
  Server server(base_config(dir));  // one worker
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client hog(server.config().socket_path);
  ASSERT_TRUE(hog.connected());
  ASSERT_TRUE(pipeline_until_blocked(hog.fd()))
      << "the server kept reading a client that never reads its replies";

  Client other(server.config().socket_path);
  ASSERT_TRUE(other.send(
      R"({"id": 2, "method": "work", "params": {"spin_us": 0}})"));
  pollfd pfd{other.fd(), POLLIN, 0};
  const bool answered = ::poll(&pfd, 1, 2000) == 1;
  // Closing the hog unblocks a worker stuck writing to it, so a failure
  // here ends the test instead of hanging the drain below.
  if (!answered) hog.close();
  ASSERT_TRUE(answered) << "no reply within 2 s while a client never reads";
  const auto reply = other.recv();
  hog.close();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->bool_or("ok", false)) << error_code_of(*reply);
  EXPECT_EQ(reply->i64_or("id", -1), 2);

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, DrainFinishesDespiteANeverReadingClient) {
  TempDir dir("serve_hogdrain");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client hog(server.config().socket_path);
  ASSERT_TRUE(pipeline_until_blocked(hog.fd()));

  // The hog stays connected and unread: pending output may delay the exit
  // by at most the drain grace.
  auto stopped = std::async(std::launch::async, [&server] {
    server.drain();
    server.wait();
  });
  const bool finished =
      stopped.wait_for(milliseconds(server.config().drain_grace_ms + 2000)) ==
      std::future_status::ready;
  if (!finished) hog.close();  // unblocks a worker stuck writing to it
  stopped.get();
  EXPECT_TRUE(finished) << "drain() + wait() outlasted the grace by 2 s";
}

TEST_F(ServeServerTest, ThreadCountDoesNotGrowWithConnections) {
  TempDir dir("serve_threads");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::size_t idle = count_threads();
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 50; ++i) {
    clients.push_back(std::make_unique<Client>(server.config().socket_path));
    // A round trip: the connection is established server-side.
    const auto h = clients.back()->call(R"({"id": 1, "method": "health"})");
    ASSERT_TRUE(h.has_value());
    ASSERT_TRUE(h->bool_or("ok", false));
  }
  EXPECT_EQ(count_threads(), idle)
      << "50 idle connections changed the thread count";

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, PipelinedRepliesPastTheUnsentBoundAllArrive) {
  TempDir dir("serve_burst");
  ServerConfig config = base_config(dir);
  config.read_deadline_ms = 0;  // no deadline wake-up to hide a stall
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(send_all(client.fd(), metrics_burst(1)));
  const std::vector<std::string> sample = read_frames(client.fd(), 1, 2000);
  ASSERT_EQ(sample.size(), 1u);
  // One write of requests whose replies pass the loop's 64 KiB unsent
  // bound many times over: every reply arrives, none waits for a timer.
  const std::size_t count = (512u << 10) / sample[0].size() + 1;
  ASSERT_TRUE(send_all(client.fd(), metrics_burst(count)));
  std::vector<std::int64_t> want(count);
  std::iota(want.begin(), want.end(), 1);
  EXPECT_EQ(ids_of(read_frames(client.fd(), count, 1000)), want);

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, IdleTimeoutWaitsForUnsentOutput) {
  TempDir dir("serve_idleunsent");
  ServerConfig config = base_config(dir);
  config.idle_timeout_ms = 200;
  config.read_deadline_ms = 0;  // isolate the idle path
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(send_all(client.fd(), metrics_burst(1)));
  const std::vector<std::string> sample = read_frames(client.fd(), 1, 2000);
  ASSERT_EQ(sample.size(), 1u);
  // Replies that overflow the socket by about half the loop's 64 KiB
  // bound: every request is decoded, and the overflow waits unsent while
  // the client reads nothing for three idle windows.
  const std::size_t chunk = sample[0].size() + 4;
  const std::size_t count =
      (socket_capacity(chunk) + (32u << 10)) / chunk + 1;
  ASSERT_TRUE(send_all(client.fd(), metrics_burst(count)));
  std::this_thread::sleep_for(milliseconds(3 * config.idle_timeout_ms));
  EXPECT_EQ(read_frames(client.fd(), count, 1000).size(), count)
      << "the idle timer closed a connection with replies still unsent";

  server.drain();
  server.wait();
}

TEST_F(ServeServerTest, AcceptBacksOffWhileOutOfDescriptors) {
  TempDir dir("serve_emfile");
  Server server(base_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // With the descriptor limit at the client's socket and every free
  // descriptor below it taken, the loop's accept4 fails with EMFILE and
  // the connection stays in the backlog.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(fd) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> fillers;
  for (int f = ::dup(fd); f >= 0; f = ::dup(fd)) fillers.push_back(f);
  const bool connected = connect_to(fd, server.config().socket_path);
  const double before = cpu_ms();
  std::this_thread::sleep_for(milliseconds(500));
  const double used = cpu_ms() - before;
  for (const int f : fillers) ::close(f);
  ::setrlimit(RLIMIT_NOFILE, &saved);
  ASSERT_TRUE(connected);
  EXPECT_LT(used, 150.0) << "the loop spun on a backlog it could not accept";

  // Once descriptors free up, the back-off ends and the connection is
  // served.
  ASSERT_TRUE(write_frame_fd(fd, R"({"id": 1, "method": "health"})"));
  pollfd pfd{fd, POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 2000), 1) << "no reply once descriptors freed";
  ::close(fd);

  server.drain();
  server.wait();
}

}  // namespace
}  // namespace agingsim::serve
