#pragma once

// The agingd server: Unix-domain socket transport, admission control and
// worker scheduling wrapped around serve::Service (docs/SERVING.md).
//
// Thread layout (fixed, however many connections are open):
//   1 event loop    one poll(2) over the listening socket, the wake pipe
//                   and every connection: accepts, reads and decodes
//                   frames, answers control requests itself (so
//                   health/status respond even when every worker is busy),
//                   routes queueable work through the admission queue,
//                   writes buffered replies, and runs each connection's
//                   read-deadline and idle timers;
//   N workers       pop admitted jobs, execute on Service, and post each
//                   finished frame (reply or stream progress) to the loop
//                   by connection id over the wake pipe — a worker never
//                   touches a socket;
//   1 deadline timer
//                   (runtime::DeadlineTimer, started by the first admitted
//                   job) cancels each job's token when its deadline
//                   expires, whether the job is still queued or already
//                   running, and every token at the drain grace time.
//
// Drain (SIGTERM / shutdown request): stop accepting connections, keep
// answering control requests, reject new work with `draining`, let queued
// + in-flight work finish; after `drain_grace_ms` cancel outstanding
// tokens, which checkpoints running campaigns. wait() joins the workers,
// then the loop flushes pending output for at most `drain_grace_ms`,
// closes every connection and exits, so the caller can flush
// observability artifacts and exit cleanly.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/runtime/robust_runner.hpp"
#include "src/serve/admission.hpp"
#include "src/serve/cache.hpp"
#include "src/serve/service.hpp"

namespace agingsim::serve {

struct ServerConfig {
  std::string socket_path;
  int workers = 4;
  AdmissionConfig admission{};
  /// Deadline applied to requests that do not carry their own
  /// `deadline_ms`; 0 disables the default (requests can still opt in).
  std::int64_t default_deadline_ms = 30'000;
  /// How long drain waits for queued + in-flight work before cancelling.
  std::int64_t drain_grace_ms = 5'000;
  std::size_t cache_budget_bytes = 64u << 20;
  /// Once a frame *starts* arriving it must complete within this window,
  /// or the connection is closed — the slow-loris defence (a client may
  /// idle between frames forever, but never mid-frame). 0 disables.
  std::int64_t read_deadline_ms = 10'000;
  /// Closes connections idle (no partial frame, nothing in flight or
  /// unsent) longer than this. 0 (default) keeps the historical
  /// behaviour: idle connections live until the peer hangs up or the
  /// daemon drains.
  std::int64_t idle_timeout_ms = 0;
  /// Per-connection cap on queued + running requests; pipelining past it
  /// is rejected with `overloaded` before touching the admission queue.
  /// 0 disables.
  std::uint32_t max_inflight_per_conn = 32;
  ServiceConfig service{};
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and spawns the loop and the workers. False (with
  /// `*error` filled) on bind/listen failure.
  bool start(std::string* error);

  /// Begins graceful drain; idempotent, safe from any thread (including
  /// the loop answering a `shutdown` request).
  void drain();

  /// Blocks until drain completes and every thread has joined: joins the
  /// workers, then lets the loop flush and close every connection.
  void wait();

  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }
  const ServerConfig& config() const noexcept { return config_; }
  AgedStateCache& cache() noexcept { return cache_; }
  std::size_t queue_depth() const { return queue_.depth(); }
  std::uint64_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_acquire);
  }

 private:
  using Clock = std::chrono::steady_clock;

  /// One client connection. Only the loop thread touches it; workers
  /// address it by id, so a late reply cannot reach a reused fd.
  struct Conn {
    std::uint64_t id = 0;
    int fd = -1;
    /// Fallback fairness identity for requests without a `client_id`
    /// ("conn-<n>"): anonymous clients are then fair per connection.
    std::string peer_id;
    FrameDecoder decoder;
    std::string out;             ///< encoded frames not yet written
    std::size_t out_sent = 0;    ///< bytes at the front of `out` written
    std::uint32_t inflight = 0;  ///< queued + running (the pipelining cap)
    /// Read side done (EOF, read error or poisoned stream): the connection
    /// closes once its in-flight replies are written.
    bool eof = false;
    /// A chaos disconnect cut a frame: closes once `out` is written.
    bool cut = false;
    std::optional<Clock::time_point> frame_deadline;
    Clock::time_point last_active;
    std::size_t unsent() const noexcept { return out.size() - out_sent; }
  };
  using ConnMap = std::map<std::uint64_t, Conn>;

  /// A frame a worker hands to the loop.
  struct Outgoing {
    std::uint64_t conn = 0;
    std::string payload;
    bool final = false;  ///< the request's reply, not a progress frame
  };

  struct Job {
    Request request;
    std::string client;  ///< resolved fairness identity
    std::uint64_t conn = 0;
    std::shared_ptr<runtime::CancelToken> token;
    Clock::time_point enqueued;
    Clock::time_point deadline;  ///< max() = none
  };

  void run_loop();
  void accept_all();
  bool tend(Conn& conn, short revents, Clock::time_point now, bool closing,
            short* events, Clock::time_point* wake);
  ConnMap::iterator close_conn(ConnMap::iterator it);
  void serve_frame(Conn& conn, const std::string& payload);
  void handle_control(Conn& conn, const Request& request);
  void dispatch_queueable(Conn& conn, Request request);
  void reply(Conn& conn, std::string_view payload);
  bool post(std::uint64_t conn, std::string payload, bool final);
  void worker_loop();
  std::string status_json() const;
  void wake_loop() noexcept;
  void close_fds() noexcept;

  ServerConfig config_;
  AgedStateCache cache_;
  Service service_;
  AdmissionQueue<Job> queue_;
  runtime::DeadlineTimer deadlines_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};
  std::atomic<bool> closing_{false};  ///< wait() joined the workers
  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> in_flight_{0};

  ConnMap conns_;                     ///< loop thread only
  std::uint64_t conn_counter_ = 0;    ///< loop thread only
  Clock::time_point accept_after_{};  ///< loop thread only: accept back-off

  std::mutex outbox_mutex_;
  std::vector<Outgoing> outbox_;
  std::unordered_set<std::uint64_t> live_;  ///< ids of open connections

  std::thread loop_;
  std::vector<std::thread> workers_;

  Clock::time_point started_at_{};
};

}  // namespace agingsim::serve
