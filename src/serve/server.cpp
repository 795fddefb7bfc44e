#include "src/serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <climits>
#include <cstring>
#include <utility>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/report/json.hpp"
#include "src/serve/chaos.hpp"

namespace agingsim::serve {
namespace {

/// Unsent output above which the loop stops reading a connection's
/// requests (docs/SERVING.md): a peer that never reads then holds at most
/// this plus the output of its in-flight requests, and pins no worker.
constexpr std::size_t kMaxUnsentBytes = 64u << 10;

/// How long the loop leaves the listening socket unpolled after accept4
/// fails for want of descriptors or memory (see accept_all).
constexpr std::chrono::milliseconds kAcceptBackoff{100};

/// Bucket bounds of serve.request_us and serve.queue_wait_us. A hot query
/// and its queue wait take well under a millisecond, so five bounds sit
/// below 1 ms.
constexpr std::array<double, 13> kLatencyBucketsUs = {
    25.0,        50.0,        100.0,       250.0,     500.0,
    1'000.0,     5'000.0,     25'000.0,    100'000.0, 500'000.0,
    1'000'000.0, 5'000'000.0, 30'000'000.0};

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
    // cleanup — release whatever was opened before the failure here.
    close_fds();
    return false;
  };
  if (config_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    if (error != nullptr) {
      *error = "socket path too long: " + config_.socket_path;
    }
    return false;
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) return fail("pipe");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
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

  started_at_ = Clock::now();
  started_.store(true, std::memory_order_release);
  const int workers = std::max(1, config_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  loop_ = std::thread([this] { run_loop(); });
  return true;
}

void Server::wake_loop() noexcept {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::drain() {
  if (draining_.exchange(true)) return;
  wake_loop();
  queue_.close();
  // After the grace period, cancel whatever is still queued or running:
  // campaigns checkpoint their completed units and return `cancelled`, so
  // no work is lost — it resumes on the next daemon start.
  deadlines_.cancel_all_at(Clock::now() +
                           std::chrono::milliseconds(config_.drain_grace_ms));
}

void Server::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  deadlines_.stop();
  // Every reply is in the outbox now; the loop flushes, closes and exits.
  closing_.store(true, std::memory_order_release);
  wake_loop();
  if (loop_.joinable()) loop_.join();
  close_fds();
  ::unlink(config_.socket_path.c_str());
  started_.store(false, std::memory_order_release);
}

void Server::close_fds() noexcept {
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

// --- the loop -------------------------------------------------------------

void Server::run_loop() {
  std::vector<Outgoing> frames;
  // The wake pipe, the listening socket, then one slot per connection in
  // conns_ order (fd -1 while it waits for nothing); accepts add at the end.
  std::vector<pollfd> fds;
  std::vector<pollfd> next;
  Clock::time_point flush_until = Clock::time_point::max();
  for (;;) {
    // closing_ before the outbox: once it reads true, every worker frame
    // is already there.
    const bool closing = closing_.load(std::memory_order_acquire);
    frames.clear();
    {
      std::lock_guard lk(outbox_mutex_);
      frames.swap(outbox_);
    }
    const Clock::time_point now = Clock::now();
    for (Outgoing& frame : frames) {
      const auto it = conns_.find(frame.conn);
      if (it == conns_.end()) continue;  // closed meanwhile: dropped
      if (frame.final) {
        --it->second.inflight;
        it->second.last_active = now;
      }
      reply(it->second, frame.payload);
    }
    if (closing && flush_until == Clock::time_point::max()) {
      flush_until = now + std::chrono::milliseconds(config_.drain_grace_ms);
    }

    Clock::time_point wake = flush_until;
    const bool backoff = now < accept_after_;
    if (backoff) wake = std::min(wake, accept_after_);
    next.assign({{wake_pipe_[0], POLLIN, 0},
                 {draining() || backoff ? -1 : listen_fd_, POLLIN, 0}});
    std::size_t slot = 2;
    for (auto it = conns_.begin(); it != conns_.end();) {
      const short revents = slot < fds.size() ? fds[slot++].revents : 0;
      short events = 0;
      if (!tend(it->second, revents, now, closing, &events, &wake)) {
        it = close_conn(it);
        continue;
      }
      next.push_back({events != 0 ? it->second.fd : -1, events, 0});
      ++it;
    }
    fds.swap(next);
    if (closing && (conns_.empty() || now >= flush_until)) break;

    int timeout_ms = -1;
    if (wake != Clock::time_point::max()) {
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          std::chrono::ceil<std::chrono::milliseconds>(wake - now).count(), 0,
          INT_MAX));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) continue;  // EINTR
    if (fds[0].revents != 0) {
      char buf[64];
      while (::read(wake_pipe_[0], buf, sizeof buf) > 0) {
      }
    }
    if (fds[1].revents != 0) accept_all();
  }
  for (auto it = conns_.begin(); it != conns_.end();) it = close_conn(it);
}

void Server::accept_all() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE, ENFILE, ENOBUFS or ENOMEM leave the connection in the
      // backlog and the listening socket readable: back off, do not spin.
      if (errno != EAGAIN) accept_after_ = Clock::now() + kAcceptBackoff;
      return;
    }
    server_metrics().connections.add();
    const std::uint64_t id = ++conn_counter_;
    Conn& conn = conns_[id];
    conn.id = id;
    conn.fd = fd;
    conn.peer_id = "conn-" + std::to_string(id);
    conn.last_active = Clock::now();
    std::lock_guard lk(outbox_mutex_);
    live_.insert(id);
  }
}

Server::ConnMap::iterator Server::close_conn(ConnMap::iterator it) {
  {
    std::lock_guard lk(outbox_mutex_);
    live_.erase(it->first);
  }
  ::close(it->second.fd);
  return conns_.erase(it);
}

bool Server::tend(Conn& conn, short revents, Clock::time_point now,
                  bool closing, short* events, Clock::time_point* wake) {
  // Stops reading while the peer leaves more than kMaxUnsentBytes unread:
  // a client that never reads pins memory up to that bound, not a worker.
  const auto reading = [&conn] {
    return !conn.eof && !conn.cut && conn.unsent() <= kMaxUnsentBytes;
  };
  if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0 && reading()) {
    // Chaos may clamp the read to a few bytes — exactly the adversarial
    // delivery pattern the decoder must be indifferent to.
    char buf[16384];
    const ssize_t n = ::read(conn.fd, buf, chaos_read_clamp(sizeof buf));
    if (n > 0) {
      conn.last_active = now;
      // A poisoned stream shows in decoder.poisoned() below.
      (void)conn.decoder.feed(
          std::string_view(buf, static_cast<std::size_t>(n)));
    } else if (n == 0 || (errno != EINTR && errno != EAGAIN)) {
      conn.eof = true;
    }
  }
  // Writes what the socket takes before each frame is decoded, so a reply
  // leaves at once and a drained backlog resumes decoding the frames that
  // are already buffered. A write error closes the connection.
  for (;;) {
    while (conn.unsent() > 0) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_sent,
                 chaos_write_chunk(conn.unsent()), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno != EAGAIN) return false;
      if (n < 0) break;
      conn.out_sent += static_cast<std::size_t>(n);
      conn.last_active = now;
    }
    if (closing || !reading()) break;
    const std::optional<std::string> payload = conn.decoder.next();
    if (!payload.has_value()) break;
    serve_frame(conn, *payload);
  }
  if (conn.out_sent > conn.out.size() / 2) {  // drop the written prefix
    conn.out.erase(0, conn.out_sent);
    conn.out_sent = 0;
  }
  if (conn.unsent() > 0) *events = POLLOUT;
  if (!closing && !conn.eof && conn.decoder.poisoned()) {
    server_metrics().poisoned_streams.add();
    conn.eof = true;
  }

  if (closing || conn.cut) return conn.unsent() > 0;
  if (conn.eof) return conn.unsent() > 0 || conn.inflight > 0;
  // A frame that started arriving must finish within read_deadline_ms
  // (the slow-loris defence); the clock stops while reading is paused.
  if (reading() && conn.decoder.mid_frame() && config_.read_deadline_ms > 0) {
    if (!conn.frame_deadline.has_value()) {
      conn.frame_deadline =
          now + std::chrono::milliseconds(config_.read_deadline_ms);
    }
    if (now >= *conn.frame_deadline) {
      // Closing is the only honest response — mid-frame there is no valid
      // request id to address an error to.
      server_metrics().read_deadline_closed.add();
      return false;
    }
    *wake = std::min(*wake, *conn.frame_deadline);
  } else {
    conn.frame_deadline.reset();
  }
  if (config_.idle_timeout_ms > 0 && !conn.decoder.mid_frame() &&
      conn.inflight == 0 && conn.unsent() == 0) {
    const Clock::time_point idle_at =
        conn.last_active + std::chrono::milliseconds(config_.idle_timeout_ms);
    if (now >= idle_at) {
      server_metrics().idle_closed.add();
      return false;
    }
    *wake = std::min(*wake, idle_at);
  }
  if (reading()) *events |= POLLIN;
  return true;
}

void Server::reply(Conn& conn, std::string_view payload) {
  if (conn.cut) return;
  const std::string frame = encode_frame(payload);
  if (chaos_drop_write()) {
    // Chaos disconnect: half the frame, so the stream always ends
    // mid-frame, then the connection closes once that much is written.
    conn.out.append(frame, 0, frame.size() / 2);
    conn.cut = true;
    return;
  }
  conn.out += frame;
}

bool Server::post(std::uint64_t conn, std::string payload, bool final) {
  bool wake = false;
  {
    std::lock_guard lk(outbox_mutex_);
    if (!live_.contains(conn)) return false;
    wake = outbox_.empty();
    outbox_.push_back(Outgoing{conn, std::move(payload), final});
  }
  if (wake) wake_loop();
  return true;
}

void Server::serve_frame(Conn& conn, const std::string& payload) {
  std::string bad_request_body;
  std::optional<Request> request = parse_request(payload, &bad_request_body);
  if (!request.has_value()) {
    server_metrics().bad_request.add();
    reply(conn, bad_request_body);
    return;
  }
  if (request->priority == Priority::kControl) {
    handle_control(conn, *request);
    return;
  }
  dispatch_queueable(conn, *request);
}

void Server::handle_control(Conn& conn, const Request& request) {
  obs::TraceSpan span("serve.control", request.id);
  std::string result;
  if (request.method == "health") {
    JsonWriter json;
    json.begin_object();
    json.key("status").value(draining() ? "draining" : "ok");
    json.end_object();
    result = json.str();
  } else if (request.method == "status") {
    result = status_json();
  } else if (request.method == "metrics") {
    result = obs::metrics_json();
  } else if (request.method == "shutdown") {
    result = "{\"draining\": true}";
  } else {
    reply(conn, error_response(request.id, ErrorCode::kBadRequest,
                               "unknown control method '" + request.method +
                                   "'"));
    return;
  }
  reply(conn, ok_response(request.id, result));
  if (request.method == "shutdown") drain();
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
              Clock::now() - started_at_)
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

void Server::dispatch_queueable(Conn& conn, const Request& request) {
  // Every queueable request is parsed here, once, before any admission
  // check: malformed params are answered at the door and never take a
  // queue slot, a quota token or a worker, nor get a retry hint. Tier-1
  // classification: a query that would miss the aged-state cache triggers
  // an expensive aging recompute, so under pressure those are shed while
  // cache hits keep flowing.
  std::string error;
  std::optional<RequestParams> params = Service::parse(request, error);
  if (!params.has_value()) {
    server_metrics().bad_request.add();
    reply(conn, error_response(request.id, ErrorCode::kBadRequest, error));
    return;
  }
  const std::uint32_t cap = config_.max_inflight_per_conn;
  if (cap != 0 && conn.inflight >= cap) {
    server_metrics().rejected_inflight_cap.add();
    reply(conn, error_response(
                    request.id, ErrorCode::kOverloaded,
                    "per-connection in-flight cap (" + std::to_string(cap) +
                        ") reached; wait for responses before pipelining more",
                    kRetryAfterMinMs));
    return;
  }
  const auto* query = std::get_if<QueryParams>(&*params);
  const bool needs_refill =
      query != nullptr && !cache_.contains(query->corner_key);

  Job job;
  job.id = request.id;
  job.params = std::move(*params);
  job.client = request.client_id.empty() ? conn.peer_id : request.client_id;
  job.conn = conn.id;
  job.token = std::make_shared<runtime::CancelToken>();
  job.enqueued = Clock::now();
  const std::int64_t deadline_ms = request.deadline_ms > 0
                                       ? request.deadline_ms
                                       : config_.default_deadline_ms;
  job.deadline = deadline_ms > 0
                     ? job.enqueued + std::chrono::milliseconds(deadline_ms)
                     : Clock::time_point::max();

  const std::string client = job.client;
  auto token = job.token;
  const auto deadline = job.deadline;
  const AdmissionDecision decision =
      queue_.try_push(std::move(job), request.priority, needs_refill, client);
  if (!decision.admitted) {
    count_rejection(decision.reason);
    reply(conn, error_response(
                    request.id, decision.reason,
                    std::string("rejected: ") +
                        std::string(error_code_name(decision.reason)),
                    decision.retry_after_ms));
    return;
  }
  ++conn.inflight;
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
    const auto started = Clock::now();
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
          job->id,
          timed_out ? ErrorCode::kTimeout : ErrorCode::kCancelled,
          timed_out ? "deadline expired while queued" : "cancelled by drain");
    } else {
      // Streaming: progress frames go to the loop ahead of the reply, in
      // order. Once the loop has closed the connection the emitter reports
      // the client gone; the service finishes the campaign anyway (units
      // checkpoint for the re-attach).
      const Service::StreamEmitter emitter =
          [this, &job](const std::string& payload) {
            const bool sent = post(job->conn, payload, false);
            if (sent) server_metrics().stream_frames.add();
            return sent;
          };
      HandlerResult result =
          service_.handle(job->id, job->params, *job->token, emitter);
      const auto finished = Clock::now();
      if (result.ok) {
        server_metrics().completed.add();
        response = ok_response(job->id, result.result_json);
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
        response = error_response(job->id, code, result.message);
      }
    }
    const auto done = Clock::now();
    server_metrics().request_us.observe(us_between(job->enqueued, done));
    queue_.record_service_ms(
        std::chrono::duration<double, std::milli>(done - started).count());
    queue_.record_done(job->client);
    server_metrics().client_completed.add();
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    post(job->conn, std::move(response), true);
  }
}

}  // namespace agingsim::serve
