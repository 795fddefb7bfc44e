#pragma once

// The agingd server: Unix-domain socket transport, admission control and
// worker scheduling wrapped around serve::Service (docs/SERVING.md).
//
// Thread layout:
//   1 listener      accept loop, woken for shutdown via a self-pipe;
//   1 per connection frame reader — answers control requests inline (so
//                   health/status respond even when every worker is busy)
//                   and routes queueable work through the admission queue;
//   N workers       pop admitted jobs, execute on Service, reply;
//   1 deadline timer
//                   (runtime::DeadlineTimer, started by the first admitted
//                   job) cancels each job's token when its deadline
//                   expires, whether the job is still queued or already
//                   running, and every token at the drain grace time.
//
// Drain (SIGTERM / shutdown request): stop accepting connections, reject
// new work with `draining`, let queued + in-flight work finish; after
// `drain_grace_ms` cancel outstanding tokens, which checkpoints running
// campaigns. wait() returns only when every thread has joined, so the
// caller can flush observability artifacts and exit cleanly.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
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
  /// Closes connections idle (no partial frame, nothing in flight) longer
  /// than this. 0 (default) keeps the historical behaviour: idle
  /// connections live until the peer hangs up or the daemon drains.
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

  /// Binds the socket and spawns the thread set. False (with `*error`
  /// filled) on bind/listen failure.
  bool start(std::string* error);

  /// Begins graceful drain; idempotent, safe from any thread (including a
  /// worker executing the `shutdown` method).
  void drain();

  /// Blocks until drain completes and every thread has joined.
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
  struct Connection {
    int fd = -1;
    /// Fallback fairness identity for requests without a `client_id`
    /// ("conn-<n>"): anonymous clients are then fair per connection.
    std::string peer_id;
    /// Queued + running requests from this connection (the pipelining cap).
    std::atomic<std::uint32_t> inflight{0};
    std::mutex write_mutex;
    /// The fd closes only when the last shared_ptr drops: queued and
    /// in-flight Jobs hold references, so a worker's late reply can never
    /// write to an fd number the kernel has already reused for another
    /// client (the connection thread exiting first is the common case).
    ~Connection();
    /// Serialized writes: worker replies and inline control replies
    /// interleave on the same stream.
    bool send(std::string_view payload);
    void shutdown_read() noexcept;
  };

  struct Job {
    Request request;
    std::string client;  ///< resolved fairness identity
    std::shared_ptr<Connection> conn;
    std::shared_ptr<runtime::CancelToken> token;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;  ///< max() = none
  };

  /// One reader thread per live connection plus a done flag the thread
  /// sets on exit, so the listener can join finished threads instead of
  /// accumulating one joinable entry per connection ever accepted.
  struct ConnThread {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void listener_loop();
  void reap_connection_threads();
  void connection_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  void handle_control(Connection& conn, const Request& request);
  void dispatch_queueable(Connection& conn, std::shared_ptr<Connection> self,
                          Request request);
  std::string status_json() const;
  void wake_listener() noexcept;

  ServerConfig config_;
  AgedStateCache cache_;
  Service service_;
  AdmissionQueue<Job> queue_;
  runtime::DeadlineTimer deadlines_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint64_t conn_counter_ = 0;  ///< listener thread only
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> in_flight_{0};

  std::mutex conns_mutex_;
  std::vector<std::weak_ptr<Connection>> conns_;

  std::thread listener_;
  std::vector<std::thread> workers_;
  std::mutex conn_threads_mutex_;
  std::vector<ConnThread> conn_threads_;

  std::chrono::steady_clock::time_point started_at_{};
};

}  // namespace agingsim::serve
