#include "src/serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/report/json.hpp"
#include "src/serve/chaos.hpp"

namespace agingsim::serve {
namespace {

constexpr std::array<double, 10> kLatencyBucketsUs = {
    100.0,     250.0,     1'000.0,    5'000.0,     25'000.0,
    100'000.0, 500'000.0, 1'000'000.0, 5'000'000.0, 30'000'000.0};

struct ServerMetrics {
  const obs::Counter& connections =
      obs::counter("serve.connections", false);
  const obs::Counter& accepted = obs::counter("serve.accepted", false);
  const obs::Counter& completed = obs::counter("serve.completed", false);
  const obs::Counter& failed = obs::counter("serve.failed", false);
  const obs::Counter& rejected_overload =
      obs::counter("serve.rejected_overload", false);
  const obs::Counter& shed_refill = obs::counter("serve.shed_refill", false);
  const obs::Counter& shed_batch = obs::counter("serve.shed_batch", false);
  const obs::Counter& rejected_draining =
      obs::counter("serve.rejected_draining", false);
  const obs::Counter& timed_out = obs::counter("serve.timed_out", false);
  const obs::Counter& cancelled = obs::counter("serve.cancelled", false);
  const obs::Counter& bad_request = obs::counter("serve.bad_request", false);
  const obs::Counter& rejected_quota =
      obs::counter("serve.rejected_quota", false);
  const obs::Counter& rejected_inflight_cap =
      obs::counter("serve.rejected_inflight_cap", false);
  const obs::Counter& read_deadline_closed =
      obs::counter("serve.read_deadline_closed", false);
  const obs::Counter& idle_closed = obs::counter("serve.idle_closed", false);
  const obs::Counter& poisoned_streams =
      obs::counter("serve.poisoned_streams", false);
  const obs::Counter& stream_frames =
      obs::counter("serve.stream_frames", false);
  // Per-client accepted/completed aggregates; the per-identity split lives
  // in `status` (metric names are registered for the process lifetime, so
  // client_ids — unbounded, client-chosen — must not become metric names).
  const obs::Counter& client_accepted =
      obs::counter("serve.client.accepted", false);
  const obs::Counter& client_completed =
      obs::counter("serve.client.completed", false);
  const obs::Gauge& queue_depth = obs::gauge("serve.queue_depth", false);
  const obs::Histogram& request_us =
      obs::histogram("serve.request_us", kLatencyBucketsUs, false);
  const obs::Histogram& queue_wait_us =
      obs::histogram("serve.queue_wait_us", kLatencyBucketsUs, false);
};

const ServerMetrics& server_metrics() {
  static const ServerMetrics m;
  return m;
}

double us_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void count_rejection(ErrorCode code) {
  const ServerMetrics& m = server_metrics();
  switch (code) {
    case ErrorCode::kOverloaded: m.rejected_overload.add(); break;
    case ErrorCode::kShedRefill: m.shed_refill.add(); break;
    case ErrorCode::kShedBatch: m.shed_batch.add(); break;
    case ErrorCode::kDraining: m.rejected_draining.add(); break;
    case ErrorCode::kQuotaExceeded: m.rejected_quota.add(); break;
    default: break;
  }
}

}  // namespace

// --- Connection -----------------------------------------------------------

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

bool Server::Connection::send(std::string_view payload) {
  std::lock_guard lk(write_mutex);
  return write_frame_fd(fd, payload);
}

void Server::Connection::shutdown_read() noexcept {
  // Unblocks a connection thread parked in read_frame_fd without racing
  // the fd's lifetime (close happens once the thread exits).
  ::shutdown(fd, SHUT_RDWR);
}

// --- Server ---------------------------------------------------------------

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(config_.cache_budget_bytes),
      service_(config_.service, &cache_),
      queue_(config_.admission) {}

Server::~Server() {
  drain();
  wait();
}

bool Server::start(std::string* error) {
  const auto fail = [&](const std::string& what) {
    const int err = errno;  // saved before close() below can clobber it
    if (error != nullptr) *error = what + ": " + std::strerror(err);
    // started_ stays false on this path, so wait() would never reach its
    // cleanup block — release whatever was opened before the failure here.
    for (int& fd : wake_pipe_) {
      if (fd >= 0) {
        ::close(fd);
        fd = -1;
      }
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (config_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    if (error != nullptr) {
      *error = "socket path too long: " + config_.socket_path;
    }
    return false;
  }
  if (pipe(wake_pipe_) != 0) return fail("pipe");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail("socket");
  // A stale socket file from a killed daemon would make bind fail; the
  // kill-and-restart resume path depends on a fresh bind succeeding.
  ::unlink(config_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind " + config_.socket_path);
  }
  if (::listen(listen_fd_, 64) != 0) return fail("listen");

  started_at_ = std::chrono::steady_clock::now();
  started_.store(true, std::memory_order_release);
  const int workers = std::max(1, config_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  listener_ = std::thread([this] { listener_loop(); });
  return true;
}

void Server::wake_listener() noexcept {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::drain() {
  if (draining_.exchange(true)) return;
  wake_listener();
  queue_.close();
  // After the grace period, cancel whatever is still queued or running:
  // campaigns checkpoint their completed units and return `cancelled`, so
  // no work is lost — it resumes on the next daemon start.
  deadlines_.cancel_all_at(std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(config_.drain_grace_ms));
}

void Server::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (listener_.joinable()) listener_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  deadlines_.stop();
  {
    std::lock_guard lk(conns_mutex_);
    for (const auto& weak : conns_) {
      if (auto conn = weak.lock()) conn->shutdown_read();
    }
  }
  std::vector<ConnThread> conn_threads;
  {
    std::lock_guard lk(conn_threads_mutex_);
    conn_threads.swap(conn_threads_);
  }
  for (ConnThread& ct : conn_threads) {
    if (ct.thread.joinable()) ct.thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  started_.store(false, std::memory_order_release);
}

void Server::listener_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    std::array<pollfd, 2> fds{{{listen_fd_, POLLIN, 0},
                               {wake_pipe_[0], POLLIN, 0}}};
    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // drain() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    server_metrics().connections.add();
    auto conn = std::make_shared<Connection>();
    conn->fd = client;
    conn->peer_id = "conn-" + std::to_string(++conn_counter_);
    {
      std::lock_guard lk(conns_mutex_);
      std::erase_if(conns_, [](const auto& w) { return w.expired(); });
      conns_.push_back(conn);
    }
    reap_connection_threads();
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread([this, conn = std::move(conn), done]() mutable {
      connection_loop(std::move(conn));
      done->store(true, std::memory_order_release);
    });
    std::lock_guard lk(conn_threads_mutex_);
    conn_threads_.push_back(ConnThread{std::move(thread), std::move(done)});
  }
}

void Server::reap_connection_threads() {
  // A long-lived daemon serves many short connections; joining finished
  // reader threads on each accept keeps conn_threads_ bounded by the number
  // of *concurrent* connections instead of growing per connection ever
  // made. The join happens outside the lock — it is immediate (the thread
  // set `done` as its last action) but there is no reason to hold the
  // mutex across a syscall.
  std::vector<ConnThread> finished;
  {
    std::lock_guard lk(conn_threads_mutex_);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < conn_threads_.size(); ++i) {
      ConnThread& ct = conn_threads_[i];
      if (ct.done->load(std::memory_order_acquire)) {
        finished.push_back(std::move(ct));
      } else {
        // Self-move-assigning a joinable std::thread terminates; only
        // shift entries that actually have a gap to fill.
        if (keep != i) conn_threads_[keep] = std::move(ct);
        ++keep;
      }
    }
    conn_threads_.resize(keep);
  }
  for (ConnThread& ct : finished) {
    if (ct.thread.joinable()) ct.thread.join();
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  // poll(2)-paced incremental reads through a FrameDecoder instead of a
  // blocking read_frame_fd: the blocking read gave a slow-loris client —
  // one that sends a partial length prefix and stalls — a parked server
  // thread for free, forever. Now a frame that starts must finish within
  // read_deadline_ms, and (opt-in) a fully idle connection expires after
  // idle_timeout_ms.
  using Clock = std::chrono::steady_clock;
  FrameDecoder decoder;
  std::optional<Clock::time_point> frame_deadline;
  Clock::time_point last_activity = Clock::now();
  char buf[4096];

  // One frame through parse/control/dispatch; false ends the connection.
  const auto process = [&](const std::string& payload) -> bool {
    std::string bad_request_body;
    std::optional<Request> request =
        parse_request(payload, &bad_request_body);
    if (!request.has_value()) {
      server_metrics().bad_request.add();
      return conn->send(bad_request_body);
    }
    if (request->priority == Priority::kControl) {
      handle_control(*conn, *request);
      return true;
    }
    const std::uint32_t cap = config_.max_inflight_per_conn;
    if (cap != 0 &&
        conn->inflight.load(std::memory_order_acquire) >= cap) {
      server_metrics().rejected_inflight_cap.add();
      return conn->send(error_response(
          request->id, ErrorCode::kOverloaded,
          "per-connection in-flight cap (" + std::to_string(cap) +
              ") reached; wait for responses before pipelining more",
          queue_.config().retry_after_min_ms));
    }
    dispatch_queueable(*conn, conn, std::move(*request));
    return true;
  };

  for (;;) {
    bool send_failed = false;
    while (auto payload = decoder.next()) {
      if (!process(*payload)) {
        send_failed = true;
        break;
      }
    }
    if (send_failed) break;
    if (decoder.poisoned()) {
      server_metrics().poisoned_streams.add();
      break;
    }
    if (decoder.mid_frame()) {
      if (!frame_deadline.has_value() && config_.read_deadline_ms > 0) {
        frame_deadline =
            Clock::now() + std::chrono::milliseconds(config_.read_deadline_ms);
      }
    } else {
      frame_deadline.reset();
    }

    Clock::time_point wake = Clock::time_point::max();
    if (frame_deadline.has_value()) wake = *frame_deadline;
    const bool idle_eligible =
        config_.idle_timeout_ms > 0 && !decoder.mid_frame() &&
        conn->inflight.load(std::memory_order_acquire) == 0;
    if (idle_eligible) {
      wake = std::min(wake, last_activity + std::chrono::milliseconds(
                                                config_.idle_timeout_ms));
    }
    int timeout_ms = -1;
    if (wake != Clock::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          wake - Clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(left.count(), 0));
    }

    pollfd pfd{conn->fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) {
      const auto now = Clock::now();
      if (frame_deadline.has_value() && now >= *frame_deadline) {
        // Slow loris: the frame did not complete in time. Closing is the
        // only honest response — mid-frame there is no valid request id to
        // address an error to.
        server_metrics().read_deadline_closed.add();
        break;
      }
      if (idle_eligible && now >= last_activity + std::chrono::milliseconds(
                                                      config_.idle_timeout_ms)) {
        server_metrics().idle_closed.add();
        break;
      }
      continue;
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    // Chaos may clamp the request to a few bytes — exactly the adversarial
    // delivery pattern the decoder must be indifferent to.
    const ssize_t n = ::read(conn->fd, buf, chaos_read_clamp(sizeof buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // EOF (or shutdown_read from drain)
    last_activity = Clock::now();
    if (!decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)))) {
      server_metrics().poisoned_streams.add();
      break;
    }
  }
  // No close here: queued/in-flight Jobs may still hold the Connection and
  // reply later. Dropping this thread's reference lets ~Connection close
  // the fd once the last holder (often a worker) is done with it.
}

void Server::handle_control(Connection& conn, const Request& request) {
  obs::TraceSpan span("serve.control", request.id);
  if (request.method == "health") {
    JsonWriter json;
    json.begin_object();
    json.key("status").value(draining() ? "draining" : "ok");
    json.end_object();
    conn.send(ok_response(request.id, json.str()));
    return;
  }
  if (request.method == "status") {
    conn.send(ok_response(request.id, status_json()));
    return;
  }
  if (request.method == "metrics") {
    conn.send(ok_response(request.id, obs::metrics_json()));
    return;
  }
  if (request.method == "shutdown") {
    conn.send(ok_response(request.id, "{\"draining\": true}"));
    drain();
    return;
  }
  conn.send(error_response(request.id, ErrorCode::kBadRequest,
                           "unknown control method '" + request.method + "'"));
}

std::string Server::status_json() const {
  const CacheStats cs = cache_.stats();
  const std::size_t depth = queue_.depth();
  JsonWriter json;
  json.begin_object();
  json.key("draining").value(draining());
  json.key("workers").value(static_cast<std::int64_t>(config_.workers));
  json.key("queue_depth").value(static_cast<std::uint64_t>(depth));
  json.key("queue_capacity")
      .value(static_cast<std::uint64_t>(config_.admission.capacity));
  json.key("degradation_tier")
      .value(static_cast<std::int64_t>(queue_.tier()));
  json.key("in_flight").value(in_flight_.load(std::memory_order_acquire));
  json.key("avg_service_ms").value(queue_.avg_service_ms());
  json.key("uptime_ms")
      .value(static_cast<std::int64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - started_at_)
              .count()));
  json.key("clients").begin_array();
  for (const ClientSnapshot& c : queue_.clients()) {
    json.begin_object();
    json.key("id").value(c.id);
    json.key("queued").value(static_cast<std::uint64_t>(c.queued));
    json.key("accepted").value(c.accepted);
    json.key("completed").value(c.completed);
    json.key("rejected_quota").value(c.rejected_quota);
    if (config_.admission.fairness.quota_rate_per_s > 0.0) {
      json.key("tokens").value(c.tokens);
    }
    json.end_object();
  }
  json.end_array();
  json.key("cache").begin_object();
  json.key("entries").value(static_cast<std::uint64_t>(cs.entries));
  json.key("bytes").value(static_cast<std::uint64_t>(cs.bytes));
  json.key("budget_bytes")
      .value(static_cast<std::uint64_t>(config_.cache_budget_bytes));
  json.key("hits").value(cs.hits);
  json.key("misses").value(cs.misses);
  json.key("insertions").value(cs.insertions);
  json.key("evictions").value(cs.evictions);
  json.key("rejected_oversize").value(cs.rejected_oversize);
  json.end_object();
  json.end_object();
  return json.str();
}

void Server::dispatch_queueable(Connection& conn,
                                std::shared_ptr<Connection> self,
                                Request request) {
  // Tier-1 classification: a query that would miss the aged-state cache
  // triggers an expensive aging recompute, so under pressure those are
  // shed while cache hits keep flowing.
  bool needs_refill = false;
  if (request.method == "query") {
    const auto key = service_.query_cache_key(request.params);
    needs_refill = key.has_value() && !cache_.contains(*key);
  }

  Job job;
  job.request = std::move(request);
  job.client = job.request.client_id.empty() ? conn.peer_id
                                             : job.request.client_id;
  job.conn = std::move(self);
  job.token = std::make_shared<runtime::CancelToken>();
  job.enqueued = std::chrono::steady_clock::now();
  const std::int64_t deadline_ms = job.request.deadline_ms > 0
                                       ? job.request.deadline_ms
                                       : config_.default_deadline_ms;
  job.deadline = deadline_ms > 0
                     ? job.enqueued + std::chrono::milliseconds(deadline_ms)
                     : std::chrono::steady_clock::time_point::max();

  const std::uint64_t id = job.request.id;
  const Priority priority = job.request.priority;
  const std::string client = job.client;
  auto token = job.token;
  const auto deadline = job.deadline;
  const AdmissionDecision decision =
      queue_.try_push(std::move(job), priority, needs_refill, client);
  if (!decision.admitted) {
    count_rejection(decision.reason);
    conn.send(error_response(id, decision.reason,
                             std::string("rejected: ") +
                                 std::string(error_code_name(decision.reason)),
                             decision.retry_after_ms));
    return;
  }
  conn.inflight.fetch_add(1, std::memory_order_acq_rel);
  server_metrics().accepted.add();
  server_metrics().client_accepted.add();
  server_metrics().queue_depth.record(
      static_cast<std::int64_t>(queue_.depth()));
  deadlines_.arm(deadline, std::move(token));
}

void Server::worker_loop() {
  while (true) {
    std::optional<Job> job = queue_.pop();
    if (!job.has_value()) return;  // queue closed and empty: drain done
    const auto started = std::chrono::steady_clock::now();
    server_metrics().queue_wait_us.observe(us_between(job->enqueued, started));
    in_flight_.fetch_add(1, std::memory_order_acq_rel);

    std::string response;
    if (job->token->cancelled()) {
      // Deadline (or drain hammer) fired while the job sat in the queue.
      const bool timed_out = started >= job->deadline;
      server_metrics().failed.add();
      (timed_out ? server_metrics().timed_out : server_metrics().cancelled)
          .add();
      response = error_response(
          job->request.id,
          timed_out ? ErrorCode::kTimeout : ErrorCode::kCancelled,
          timed_out ? "deadline expired while queued" : "cancelled by drain");
    } else {
      // Streaming: progress frames go out on the job's connection under
      // its write mutex, interleaving cleanly with control replies. A
      // failed frame write reports the client gone; the service finishes
      // the campaign anyway (units checkpoint for the re-attach).
      const Service::StreamEmitter emitter =
          [&job](const std::string& payload) {
            const bool sent = job->conn->send(payload);
            if (sent) server_metrics().stream_frames.add();
            return sent;
          };
      HandlerResult result = service_.handle(job->request, *job->token,
                                             emitter);
      const auto finished = std::chrono::steady_clock::now();
      if (result.ok) {
        server_metrics().completed.add();
        response = ok_response(job->request.id, result.result_json);
      } else {
        server_metrics().failed.add();
        ErrorCode code = result.code;
        if (code == ErrorCode::kCancelled && finished >= job->deadline) {
          code = ErrorCode::kTimeout;
          result.message = "deadline expired: " + result.message;
        }
        switch (code) {
          case ErrorCode::kTimeout: server_metrics().timed_out.add(); break;
          case ErrorCode::kCancelled: server_metrics().cancelled.add(); break;
          case ErrorCode::kBadRequest:
            server_metrics().bad_request.add();
            break;
          default: break;
        }
        response = error_response(job->request.id, code, result.message);
      }
    }
    const auto done = std::chrono::steady_clock::now();
    server_metrics().request_us.observe(us_between(job->enqueued, done));
    queue_.record_service_ms(
        std::chrono::duration<double, std::milli>(done - started).count());
    queue_.record_done(job->client);
    server_metrics().client_completed.add();
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    job->conn->send(response);
    job->conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
}

}  // namespace agingsim::serve
