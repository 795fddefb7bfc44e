// Streaming campaign responses and resume cursors, end to end over a real
// socket (docs/SERVING.md): progress-frame ordering, stream_every thinning,
// tail-only resume with byte-identical frames, cursor validation, and the
// per-client fairness surface (client_id in status, quota rejections).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
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

class Client {
 public:
  explicit Client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  socket_path.c_str());
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  bool send(const std::string& payload) { return write_frame_fd(fd_, payload); }
  std::optional<std::string> recv_raw() { return read_frame_fd(fd_); }

  std::optional<JsonValue> call(const std::string& payload) {
    if (!send(payload)) return std::nullopt;
    const auto frame = recv_raw();
    if (!frame.has_value()) return std::nullopt;
    return parse_json(*frame);
  }

  /// Sends one request and drains raw frames until the final one (no
  /// "stream" key). Returns all frames in arrival order, final included.
  std::optional<std::vector<std::string>> call_stream(
      const std::string& payload) {
    if (!send(payload)) return std::nullopt;
    std::vector<std::string> frames;
    while (true) {
      auto frame = recv_raw();
      if (!frame.has_value()) return std::nullopt;
      const bool final_frame = frame->find("\"stream\"") == std::string::npos;
      frames.push_back(std::move(*frame));
      if (final_frame) return frames;
    }
  }

 private:
  int fd_ = -1;
};

std::string error_code_of(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  return error != nullptr ? error->str_or("code", "") : "";
}

ServerConfig stream_config(const TempDir& dir) {
  ServerConfig config;
  config.socket_path = (dir.path() / "agingd.sock").string();
  config.workers = 1;
  config.admission.capacity = 4;
  config.drain_grace_ms = 500;
  config.cache_budget_bytes = 8u << 20;
  config.service.checkpoint_root = (dir.path() / "ckpt").string();
  config.service.runner.max_retries = 0;
  return config;
}

/// The drill campaign: 3 trials -> 4 work units (baseline + trials).
std::string campaign_request(std::uint64_t id, const std::string& extra) {
  return "{\"id\": " + std::to_string(id) +
         ", \"method\": \"campaign\", \"params\": {\"arch\": \"cb\","
         " \"width\": 4, \"trials\": 3, \"ops\": 64, \"sites\": 1,"
         " \"seed\": 77" +
         (extra.empty() ? "" : ", " + extra) + "}}";
}

TEST(ServeStream, FramesAscendTheFrontierAndFinalCarriesCursor) {
  TempDir dir("stream_frames");
  Server server(stream_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  ASSERT_TRUE(client.connected());
  const auto frames = client.call_stream(campaign_request(1, "\"stream\": true"));
  ASSERT_TRUE(frames.has_value());
  // 4 progress frames (units 1..4) + the final response.
  ASSERT_EQ(frames->size(), 5u);
  for (std::size_t i = 0; i + 1 < frames->size(); ++i) {
    const auto doc = parse_json((*frames)[i]);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->u64_or("id", 0), 1u);
    EXPECT_EQ(doc->u64_or("stream", 0), i + 1);  // seq == units_done
    EXPECT_EQ(doc->u64_or("units_done", 0), i + 1);
    EXPECT_EQ(doc->u64_or("units_total", 0), 4u);
    const JsonValue* partial = doc->find("partial_stats");
    ASSERT_NE(partial, nullptr);
    // Frame 1 covers only the fault-free baseline unit, so its partial
    // stats show zero trials; from frame 2 on the trial ops accumulate.
    EXPECT_EQ(partial->u64_or("trials", 99), i);
    if (i == 0) {
      EXPECT_EQ(partial->u64_or("ops", 99), 0u);
    } else {
      EXPECT_GT(partial->u64_or("ops", 0), 0u);
    }
  }
  const auto final_doc = parse_json(frames->back());
  ASSERT_TRUE(final_doc.has_value());
  ASSERT_TRUE(final_doc->bool_or("ok", false)) << error_code_of(*final_doc);
  const JsonValue* result = final_doc->find("result");
  ASSERT_NE(result, nullptr);
  const JsonValue* cursor = result->find("resume_cursor");
  ASSERT_NE(cursor, nullptr);
  EXPECT_EQ(cursor->str_or("digest", "").size(), 16u);
  EXPECT_EQ(cursor->i64_or("unit_index", -1), 4);  // trials + 1 = finished

  server.drain();
  server.wait();
}

TEST(ServeStream, StreamEveryThinsFramesButNeverTheLast) {
  TempDir dir("stream_every");
  Server server(stream_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  const auto frames = client.call_stream(
      campaign_request(1, "\"stream\": true, \"stream_every\": 3"));
  ASSERT_TRUE(frames.has_value());
  // Units 1..4 thinned to multiples of 3, plus the final unit always: 3, 4.
  ASSERT_EQ(frames->size(), 3u);
  EXPECT_EQ(parse_json((*frames)[0])->u64_or("units_done", 0), 3u);
  EXPECT_EQ(parse_json((*frames)[1])->u64_or("units_done", 0), 4u);

  server.drain();
  server.wait();
}

TEST(ServeStream, ResumeCursorStreamsOnlyTheTailByteIdentically) {
  TempDir dir("stream_resume");
  Server server(stream_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Uninterrupted run: every frame, captured raw.
  Client first(server.config().socket_path);
  const auto full =
      first.call_stream(campaign_request(1, "\"stream\": true"));
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->size(), 5u);
  const auto final_doc = parse_json(full->back());
  const std::string digest =
      final_doc->find("result")->find("resume_cursor")->str_or("digest", "");
  ASSERT_EQ(digest.size(), 16u);

  // A client that saw frames 1..2 and then died re-attaches with cursor 2
  // (same request id — byte identity is part of the contract). Units are
  // restored from checkpoints, frames <= 2 suppressed, frames 3..4 and the
  // final response byte-equal the uninterrupted run's.
  Client resumed(server.config().socket_path);
  const auto tail = resumed.call_stream(campaign_request(
      1, "\"stream\": true, \"resume_cursor\": {\"digest\": \"" + digest +
             "\", \"unit_index\": 2}"));
  ASSERT_TRUE(tail.has_value());
  ASSERT_EQ(tail->size(), 3u);
  EXPECT_EQ((*tail)[0], (*full)[2]);
  EXPECT_EQ((*tail)[1], (*full)[3]);
  EXPECT_EQ((*tail)[2], (*full)[4]);  // the final response too

  // Concatenated transcripts are identical: pre-drop + resumed == full.
  std::string pre_drop = (*full)[0] + (*full)[1];
  std::string resumed_bytes;
  for (const std::string& f : *tail) resumed_bytes += f;
  std::string uninterrupted;
  for (const std::string& f : *full) uninterrupted += f;
  EXPECT_EQ(pre_drop + resumed_bytes, uninterrupted);

  // A finished cursor streams nothing: just the final response again.
  Client done(server.config().socket_path);
  const auto nothing = done.call_stream(campaign_request(
      1, "\"stream\": true, \"resume_cursor\": {\"digest\": \"" + digest +
             "\", \"unit_index\": 4}"));
  ASSERT_TRUE(nothing.has_value());
  ASSERT_EQ(nothing->size(), 1u);
  EXPECT_EQ(nothing->front(), full->back());

  server.drain();
  server.wait();
}

TEST(ServeStream, CursorValidationRejectsBadInput) {
  TempDir dir("stream_badcursor");
  Server server(stream_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  // A cursor whose digest does not match this campaign's configuration.
  const auto mismatch = client.call(campaign_request(
      1,
      "\"stream\": true, \"resume_cursor\": {\"digest\":"
      " \"0000000000000000\", \"unit_index\": 1}"));
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(error_code_of(*mismatch), "bad_request");

  const char* bad[] = {
      "\"resume_cursor\": 7",                              // not an object
      "\"resume_cursor\": {\"unit_index\": 1}",            // no digest
      "\"resume_cursor\": {\"digest\": \"ab\", \"unit_index\": 9}",  // > n+1
      "\"stream\": true, \"stream_every\": 0",             // < 1
  };
  for (const char* extra : bad) {
    const auto reply = client.call(campaign_request(2, extra));
    ASSERT_TRUE(reply.has_value()) << extra;
    EXPECT_EQ(error_code_of(*reply), "bad_request") << extra;
  }

  server.drain();
  server.wait();
}

TEST(ServeStream, UnstreamedCampaignStillReturnsACursor) {
  TempDir dir("stream_nostream");
  Server server(stream_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  const auto reply = client.call(campaign_request(1, ""));
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->bool_or("ok", false)) << error_code_of(*reply);
  const JsonValue* cursor = reply->find("result")->find("resume_cursor");
  ASSERT_NE(cursor, nullptr);
  EXPECT_EQ(cursor->i64_or("unit_index", -1), 4);

  server.drain();
  server.wait();
}

// --- per-client fairness over the wire -------------------------------------

TEST(ServeStream, ClientIdentityShowsUpInStatus) {
  TempDir dir("stream_clients");
  Server server(stream_config(dir));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(server.config().socket_path);
  const auto work = client.call(
      R"({"id": 1, "method": "work", "client_id": "ci-paced",
          "params": {"spin_us": 100}})");
  ASSERT_TRUE(work.has_value());
  EXPECT_TRUE(work->bool_or("ok", false));

  // record_done runs on the worker after the reply is written, so give the
  // completion count a moment to land before asserting on it.
  bool found = false;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!found && std::chrono::steady_clock::now() < give_up) {
    const auto status = client.call(R"({"id": 2, "method": "status"})");
    ASSERT_TRUE(status.has_value());
    const JsonValue* result = status->find("result");
    ASSERT_NE(result, nullptr);
    const JsonValue* clients = result->find("clients");
    ASSERT_NE(clients, nullptr);
    ASSERT_TRUE(clients->is_array());
    for (const JsonValue& entry : clients->as_array()) {
      if (entry.str_or("id", "") != "ci-paced") continue;
      EXPECT_EQ(entry.u64_or("accepted", 0), 1u);
      EXPECT_EQ(entry.u64_or("rejected_quota", 99), 0u);
      if (entry.u64_or("completed", 0) == 1u) found = true;
    }
    if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(found)
      << "client 'ci-paced' with completed=1 missing from status clients";

  server.drain();
  server.wait();
}

TEST(ServeStream, QuotaRejectsFloodWithRetryHint) {
  TempDir dir("stream_quota");
  ServerConfig config = stream_config(dir);
  config.admission.fairness.quota_rate_per_s = 0.001;  // no practical refill
  config.admission.fairness.quota_burst = 2.0;
  Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client(config.socket_path);
  for (int i = 1; i <= 2; ++i) {
    const auto ok = client.call(
        "{\"id\": " + std::to_string(i) +
        ", \"method\": \"work\", \"client_id\": \"ci-greedy\","
        " \"params\": {\"spin_us\": 10}}");
    ASSERT_TRUE(ok.has_value());
    EXPECT_TRUE(ok->bool_or("ok", false)) << error_code_of(*ok);
  }
  const auto rejected = client.call(
      R"({"id": 3, "method": "work", "client_id": "ci-greedy",
          "params": {"spin_us": 10}})");
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(rejected->bool_or("ok", true));
  EXPECT_EQ(error_code_of(*rejected), "quota_exceeded");
  EXPECT_GE(rejected->find("error")->i64_or("retry_after_ms", 0),
            kRetryAfterMinMs);

  // A different identity on the same connection still has a full bucket.
  const auto other = client.call(
      R"({"id": 4, "method": "work", "client_id": "ci-other",
          "params": {"spin_us": 10}})");
  ASSERT_TRUE(other.has_value());
  EXPECT_TRUE(other->bool_or("ok", false));

  // Control plane is never quota-limited, even for the exhausted identity.
  const auto health = client.call(
      R"({"id": 5, "method": "health", "client_id": "ci-greedy"})");
  ASSERT_TRUE(health.has_value());
  EXPECT_TRUE(health->bool_or("ok", false));

  server.drain();
  server.wait();
}

}  // namespace
}  // namespace agingsim::serve
