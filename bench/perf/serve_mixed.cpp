// serve_mixed: the service path — agingd from the same build, default
// settings (4 workers, 64 MiB cache), driven open-loop.
//
// Set-up starts the daemon and warms six hot keys (AM/CB/RB16 x years
// {0, 7}, 2000 ops). The load generator then offers 100 req/s over 2
// connections: 2 s of warm-up load, then --seconds measured. 98 % of
// queries hit the six warm keys; every 50th is cold (CB16, 7 years, a
// unique operand seed each), which costs a stress extraction plus a sparse
// trace on a worker. One thread sends on schedule and one thread per
// connection reads; each request is timed from its scheduled send time, so
// a stall also charges the requests queued behind it.
//
// The rate and the mix are chosen, not taken from recorded traffic: light
// enough (about a tenth of the four workers) that refills never overlap,
// so the latencies read service time rather than a queue.

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/perf/harness.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/runtime/serial.hpp"
#include "src/serve/json.hpp"
#include "src/serve/protocol.hpp"
#include "src/workload/rng.hpp"

extern char** environ;

namespace agingbench {
namespace {

using namespace agingsim;

struct HotKey {
  const char* arch;
  int years;
};
constexpr HotKey kHotKeys[] = {{"am", 0}, {"cb", 0}, {"rb", 0},
                               {"am", 7}, {"cb", 7}, {"rb", 7}};
constexpr std::size_t kNumHot = std::size(kHotKeys);
constexpr int kConnections = 2;
constexpr std::uint64_t kColdEvery = 50;  // 2 % cold
constexpr double kHotSloMs = 50.0;
constexpr double kColdSloMs = 1000.0;

/// Owns one client socket.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One agingd child process. The destructor kills and reaps a daemon that
/// was not shut down cleanly, so no run leaves a process behind.
class Daemon {
 public:
  Daemon(const std::string& socket_path, const std::string& trace_path)
      : socket_path_(socket_path) {
    std::filesystem::remove(socket_path);
    std::vector<std::string> args = {AGINGBENCH_AGINGD, "--socket", socket_path,
                                     "--quiet"};
    if (!trace_path.empty()) {
      args.push_back("--trace");
      args.push_back(trace_path);
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The harness's own recorder variables would make agingd write its
    // artifacts over the harness's files; the daemon traces via --trace.
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string_view var(*e);
      if (var.rfind("AGINGSIM_TRACE=", 0) == 0 ||
          var.rfind("AGINGSIM_METRICS=", 0) == 0) {
        continue;
      }
      envp.push_back(*e);
    }
    envp.push_back(nullptr);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(),
                                 envp.data());
    if (rc != 0) {
      throw std::runtime_error(std::string("cannot start agingd: ") +
                               std::strerror(rc));
    }
    pid_ = pid;
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const noexcept { return pid_; }

  /// Connects once the daemon listens; throws if it exits or never does.
  int connect_when_ready() {
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      const int fd = connect_unix(socket_path_);
      if (fd >= 0) return fd;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("agingd exited during start-up");
      }
      if (seconds_since(t0) > 30.0) {
        throw std::runtime_error("agingd did not listen within 30 s");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  /// Drains the daemon with SIGTERM and reaps it; true on a clean exit 0.
  /// A signal rather than a `shutdown` request: a request would start a
  /// fresh connection thread during the drain, and agingd's trace hands a
  /// new thread the ring of one that exited, discarding that ring's spans.
  bool shutdown() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const pid_t pid = pid_;
    pid_ = -1;
    if (::waitpid(pid, &status, 0) != pid) return false;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_path_;
  pid_t pid_ = -1;
};

std::string query_request(std::uint64_t id, const char* arch, int years,
                          int ops, std::uint64_t seed) {
  return "{\"id\": " + std::to_string(id) +
         ", \"method\": \"query\", \"params\": {\"arch\": \"" + arch +
         "\", \"width\": 16, \"years\": " + std::to_string(years) +
         ", \"ops\": " + std::to_string(ops) +
         ", \"seed\": " + std::to_string(seed) + "}}";
}

struct Reply {
  std::uint64_t id = 0;
  bool ok = false;
  bool cache_hit = false;
  /// The result object with the cache_hit member cut out: hot replies must
  /// equal their warm-up reply byte for byte once it is gone.
  std::string body;
};

std::optional<Reply> parse_reply(const std::string& text) {
  const auto doc = serve::parse_json(text);
  if (!doc.has_value() || !doc->is_object()) return std::nullopt;
  Reply r;
  r.id = doc->u64_or("id", 0);
  r.ok = doc->bool_or("ok", false);
  if (const serve::JsonValue* result = doc->find("result")) {
    r.cache_hit = result->bool_or("cache_hit", false);
  }
  const std::size_t at = text.find("\"result\":");
  if (at == std::string::npos) return r;
  r.body = text.substr(at);
  const std::string key = "\"cache_hit\": ";
  const std::size_t hit = r.body.find(key);
  if (hit != std::string::npos) {
    std::size_t end = hit + key.size();
    while (end < r.body.size() && r.body[end] != ',' && r.body[end] != '}') {
      ++end;
    }
    if (end < r.body.size() && r.body[end] == ',') ++end;
    r.body.erase(hit, end - hit);
  }
  return r;
}

/// Waits up to `timeout_ms` for one frame; nullopt on timeout or error.
std::optional<std::string> read_frame_within(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  const int ready = ::poll(&p, 1, timeout_ms);
  if (ready <= 0) return std::nullopt;
  return serve::read_frame_fd(fd);
}

/// One request/reply on `fd`; returns the reply text.
std::string round_trip(int fd, const std::string& request) {
  if (fd < 0 || !serve::write_frame_fd(fd, request)) {
    throw std::runtime_error("agingd control request failed");
  }
  auto reply = read_frame_within(fd, 30'000);
  if (!reply) throw std::runtime_error("agingd control reply missing");
  return *reply;
}

struct Warm {
  std::vector<std::string> bodies;  ///< per hot key
  std::uint64_t digest = 0;
};

/// Queries the six hot keys (pipelined, so the workers refill in parallel).
Warm warm_hot_keys(int fd, std::uint64_t hot_seed, int ops) {
  for (std::size_t k = 0; k < kNumHot; ++k) {
    if (!serve::write_frame_fd(
            fd, query_request(k + 1, kHotKeys[k].arch, kHotKeys[k].years, ops,
                              hot_seed))) {
      throw std::runtime_error("warm-up send failed");
    }
  }
  Warm w;
  w.bodies.resize(kNumHot);
  for (std::size_t n = 0; n < kNumHot; ++n) {
    const auto text = read_frame_within(fd, 60'000);
    const auto reply = text ? parse_reply(*text) : std::nullopt;
    if (!reply || !reply->ok || reply->id < 1 || reply->id > kNumHot) {
      throw std::runtime_error("warm-up query failed: " +
                               text.value_or("no reply"));
    }
    w.bodies[reply->id - 1] = reply->body;
  }
  runtime::Digest d;
  for (const std::string& b : w.bodies) d.mix(std::string_view(b));
  w.digest = d.value();
  return w;
}

struct Request {
  bool cold = false;
  std::size_t key = 0;  ///< hot key index
  int conn = 0;
  double sched_us = 0.0;  ///< all times relative to the load's start
  double sent_us = -1.0;
  double done_us = -1.0;
  bool ok = false;
  bool cache_hit = false;
  bool matches = false;  ///< hot: body equals the warm-up body
};

double since_us(Clock::time_point base) {
  return std::chrono::duration<double, std::micro>(Clock::now() - base).count();
}

}  // namespace

void run_serve_mixed(const Options& opt, Result& r) {
  const double rate = opt.smoke ? 50.0 : 100.0;
  const double warm_s = opt.smoke ? 0.2 : 2.0;
  const int ops = opt.smoke ? 200 : 2000;
  const std::uint64_t hot_seed = derive_seed(opt.seed, "serve/hot") >> 1;
  const std::uint64_t cold_seed = derive_seed(opt.seed, "serve/cold") >> 2;
  const std::string socket =
      (std::filesystem::path(opt.work_dir) / "agingd.sock").string();

  // Client times are kept relative to `base`; the anchor span ties them to
  // the trace clock in traced runs.
  const Clock::time_point base = Clock::now();
  { obs::TraceSpan anchor("bench.anchor"); }

  std::optional<Daemon> daemon;
  Warm warm;
  std::size_t unclean_exits = 0, changed_warm = 0;
  const int setups = setup_count(opt);
  for (int i = 0; i < setups; ++i) {
    const bool last = i + 1 == setups;
    if (daemon) unclean_exits += !daemon->shutdown();
    daemon.reset();
    Warm w = timed_setup(
        r,
        [&] {
          daemon.emplace(socket, last ? opt.daemon_trace : std::string());
          const Fd fd(daemon->connect_when_ready());
          return warm_hot_keys(fd.get(), hot_seed, ops);
        },
        /*pin=*/false);
    changed_warm += i > 0 && w.digest != warm.digest;
    warm = std::move(w);
  }
  check(r, "warm_replies_equal_across_restarts", changed_warm == 0);
  r.warmup.digest = warm.digest;

  // The schedule is fixed before the first send. Every 50th slot is cold,
  // so at 100 req/s refills arrive 0.5 s apart and never overlap: the
  // daemon's peak memory and the hot tail do not hinge on how a random
  // draw happened to cluster them. Requests before `first_measured` are
  // warm-up load; at least one request is measured however short the run.
  const auto slots = [rate](double s) {
    return static_cast<std::size_t>(std::llround(rate * s));
  };
  const std::size_t first_measured = slots(warm_s);
  const std::size_t total =
      first_measured + std::max<std::size_t>(1, slots(opt.seconds));
  std::vector<Request> reqs(total);
  Rng mix(derive_seed(opt.seed, "serve/mix"));
  const std::uint64_t cold_slot = mix.next_below(kColdEvery);
  std::size_t per_conn[kConnections] = {};
  for (std::size_t i = 0; i < total; ++i) {
    reqs[i].cold = i % kColdEvery == cold_slot;
    reqs[i].key = static_cast<std::size_t>(mix.next_below(kNumHot));
    reqs[i].conn = static_cast<int>(i % kConnections);
    reqs[i].sched_us = 1e6 * static_cast<double>(i) / rate;
    ++per_conn[reqs[i].conn];
  }
  constexpr std::uint64_t kFirstId = 1000;

  // Traced runs read the daemon's metrics around the measured requests over
  // one long-lived connection, whose daemon-side thread keeps its trace
  // ring, so both control spans survive to align the two clocks.
  const bool traced = obs::trace_enabled();
  std::optional<Fd> control_fd;
  if (traced) control_fd.emplace(connect_unix(socket));
  std::vector<double> control_sent, control_recv, control_ids;
  const auto control = [&](const char* key, std::uint64_t id) {
    control_ids.push_back(static_cast<double>(id));
    control_sent.push_back(since_us(base));
    r.documents.emplace_back(
        key, round_trip(control_fd->get(), "{\"id\": " + std::to_string(id) +
                                               ", \"method\": \"metrics\"}"));
    control_recv.push_back(since_us(base));
  };

  std::vector<std::unique_ptr<Fd>> conns;
  for (int c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<Fd>(connect_unix(socket)));
    if (conns.back()->get() < 0) throw std::runtime_error("connect failed");
  }
  std::size_t late_over_1ms = 0;
  std::vector<std::jthread> readers;  // joined on every path
  {
    obs::TraceSpan window("bench.timed");
    const double load_offset_us = since_us(base);
    for (Request& q : reqs) q.sched_us += load_offset_us;
    for (int c = 0; c < kConnections; ++c) {
      readers.emplace_back([&, c] {
        const int fd = conns[static_cast<std::size_t>(c)]->get();
        for (std::size_t n = 0; n < per_conn[c]; ++n) {
          // A reply that takes a minute is a hung daemon, not a latency.
          const auto text = read_frame_within(fd, 60'000);
          const double done = since_us(base);
          if (!text) return;
          const auto reply = parse_reply(*text);
          if (!reply || reply->id < kFirstId || reply->id - kFirstId >= total) {
            continue;
          }
          Request& q = reqs[reply->id - kFirstId];
          q.done_us = done;
          q.ok = reply->ok;
          q.cache_hit = reply->cache_hit;
          q.matches = !q.cold && reply->body == warm.bodies[q.key];
        }
      });
    }
    for (std::size_t i = 0; i < total; ++i) {
      Request& q = reqs[i];
      if (traced && i == first_measured) {
        control("daemon_metrics_before", 900001);
      }
      std::this_thread::sleep_until(
          base + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double, std::micro>(q.sched_us)));
      const std::string text =
          q.cold ? query_request(kFirstId + i, "cb", 7, ops, cold_seed + i)
                 : query_request(kFirstId + i, kHotKeys[q.key].arch,
                                 kHotKeys[q.key].years, ops, hot_seed);
      q.sent_us = since_us(base);
      late_over_1ms += q.sent_us - q.sched_us > 1000.0;
      if (!serve::write_frame_fd(conns[static_cast<std::size_t>(q.conn)]->get(),
                                 text)) {
        q.sent_us = -1.0;
      }
    }
    for (std::jthread& t : readers) t.join();
  }
  if (traced) control("daemon_metrics_after", 900002);
  r.peak_rss_kb = peak_rss_kb(daemon->pid());
  control_fd.reset();
  conns.clear();
  unclean_exits += !daemon->shutdown();
  daemon.reset();
  check(r, "daemon_clean_exits", unclean_exits == 0);

  const double measured_from = reqs[first_measured].sched_us;
  Job job;
  std::size_t hot_mismatch = 0, cold_hits = 0;
  double last_done = 0.0;
  std::vector<double> cls, lat, late;
  for (const Request& q : reqs) {
    if (q.cold && q.ok && q.cache_hit) ++cold_hits;
    if (!q.cold && q.ok && !q.matches) ++hot_mismatch;
    if (q.sched_us < measured_from) continue;
    ++job.attempted;
    const bool answered = q.done_us >= 0.0 && q.ok;
    job.failed += !answered;
    const double latency_ms = answered ? (q.done_us - q.sched_us) / 1e3 : -1.0;
    job.work += answered && latency_ms <= (q.cold ? kColdSloMs : kHotSloMs);
    last_done = std::max(last_done, q.done_us);
    cls.push_back(q.cold ? 1.0 : 0.0);
    lat.push_back(latency_ms);
    late.push_back(q.sent_us >= 0.0 ? (q.sent_us - q.sched_us) / 1e3 : -1.0);
  }
  // Goodput: requests that met their SLO, over the span from the first
  // measured send slot to the last reply. At a fixed offered rate it is the
  // rate times slo_ok_ratio, so it mirrors that ratio and cannot show a win.
  job.wall_s = last_done > measured_from ? (last_done - measured_from) / 1e6
                                         : opt.seconds;
  job.digest = hot_mismatch == 0 ? warm.digest : ~warm.digest;
  r.jobs.push_back(job);
  check(r, "hot_replies_equal_warmup", hot_mismatch == 0,
        std::to_string(hot_mismatch) + " hot replies differ");
  check(r, "cold_replies_missed_cache", cold_hits == 0,
        std::to_string(cold_hits) + " cold replies hit the cache");
  check(r, "every_request_answered", job.failed == 0,
        std::to_string(job.failed) + " of " + std::to_string(job.attempted));

  r.series.emplace_back("req_cold", std::move(cls));
  r.series.emplace_back("req_latency_ms", std::move(lat));
  r.series.emplace_back("req_late_ms", std::move(late));
  std::vector<double> ids, sched;
  for (std::size_t i = 0; i < total; ++i) {
    if (reqs[i].sched_us < measured_from) continue;
    ids.push_back(static_cast<double>(kFirstId + i));
    sched.push_back(reqs[i].sched_us);
  }
  r.series.emplace_back("req_id", std::move(ids));
  r.series.emplace_back("req_sched_us", std::move(sched));
  r.series.emplace_back("control_id", std::move(control_ids));
  r.series.emplace_back("control_sent_us", std::move(control_sent));
  r.series.emplace_back("control_recv_us", std::move(control_recv));
  r.numbers.emplace_back("offered_rate_per_s", rate);
  r.numbers.emplace_back("late_over_1ms", static_cast<double>(late_over_1ms));
  // Only cold CB16 refills simulate inside the measured window.
  const MultiplierNetlist cb16 =
      build_multiplier(MultiplierArch::kColumnBypass, 16);
  r.numbers.emplace_back("mean_gates_per_step",
                         static_cast<double>(cb16.netlist.num_gates()));
  r.numbers.emplace_back("ops_per_call", ops);
}

}  // namespace agingbench
