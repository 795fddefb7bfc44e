// agingd — the aging-simulation serving daemon (docs/SERVING.md).
//
// Long-lived front-end of src/serve/: accepts query/campaign/work requests
// as length-prefixed JSON over a Unix-domain socket, schedules them on a
// bounded admission queue with explicit overload rejection and graceful
// degradation tiers, caches aged-netlist state, and checkpoints campaigns
// so a daemon killed mid-campaign resumes byte-identically after restart.
//
// Shutdown: SIGTERM or SIGINT (or a `shutdown` request) starts a graceful
// drain — stop accepting, finish or checkpoint in-flight work, flush
// observability artifacts — then exits 0.
//
// Exit codes: 0 = clean (including signal-initiated drain), 2 = usage
// error, 3 = cannot bind the socket.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include "src/core/env.hpp"
#include "src/obs/artifacts.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/serve/server.hpp"

namespace {

using namespace agingsim;

// Self-pipe shared with the signal handlers: the only async-signal-safe
// way to get from a signal to the drain sequence is write(2) on a
// pre-opened fd; a watcher thread does the actual draining.
int g_signal_pipe[2] = {-1, -1};
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) {
  g_signal = sig;
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

struct Options {
  serve::ServerConfig server;
  std::string trace_path;
  std::string metrics_path;
  bool quiet = false;
};

void print_usage(std::ostream& os) {
  os << "usage: agingd [options]\n"
        "  --socket PATH        Unix socket path"
        " [$AGINGSIM_SERVE_SOCKET or ./agingd.sock]\n"
        "  --workers N          worker threads [$AGINGSIM_SERVE_WORKERS or"
        " 4]\n"
        "  --queue N            admission queue capacity"
        " [$AGINGSIM_SERVE_QUEUE or 64]\n"
        "  --deadline-ms N      default per-request deadline, 0 = none"
        " [$AGINGSIM_SERVE_DEADLINE_MS or 30000]\n"
        "  --drain-grace-ms N   drain grace before cancelling in-flight"
        " work [5000]\n"
        "  --cache-mb N         aged-state cache budget in MiB"
        " [$AGINGSIM_SERVE_CACHE_MB or 64]\n"
        "  --quota-rate R       per-client token-bucket refill req/s, 0 ="
        " quotas off [$AGINGSIM_SERVE_QUOTA_RATE or 0]\n"
        "  --quota-burst B      per-client token-bucket capacity"
        " [$AGINGSIM_SERVE_QUOTA_BURST or 32]\n"
        "  --read-deadline-ms N close a connection whose frame stays"
        " incomplete this long, 0 = off\n"
        "                       [$AGINGSIM_SERVE_READ_DEADLINE_MS or 10000]\n"
        "  --idle-timeout-ms N  close connections idle this long (no partial"
        " frame, nothing in\n"
        "                       flight), 0 = never"
        " [$AGINGSIM_SERVE_IDLE_TIMEOUT_MS or 0]\n"
        "  --max-inflight N     per-connection cap on queued+running"
        " requests, 0 = off\n"
        "                       [$AGINGSIM_SERVE_MAX_INFLIGHT or 32]\n"
        "  --checkpoint-dir D   campaign checkpoint root"
        " [$AGINGSIM_SERVE_CHECKPOINT_DIR or none]\n"
        "  --kernel NAME        step kernel for query/campaign traces:\n"
        "                       dense|sparse|batch [$AGINGSIM_KERNEL or"
        " batch]\n"
        "  --trace PATH         write a Chrome trace-event file on exit\n"
        "  --metrics PATH       write a metrics JSON snapshot on exit\n"
        "  --quiet              suppress startup/drain notes on stderr\n"
        "  --help               this text\n";
}

std::optional<Options> parse_args(int argc, char** argv, int& exit_code) {
  Options opt;
  // Env defaults first; flags override below.
  opt.server.socket_path =
      env::str_var("AGINGSIM_SERVE_SOCKET").value_or("./agingd.sock");
  opt.server.workers =
      static_cast<int>(env::long_or("AGINGSIM_SERVE_WORKERS", 4, 1, 256));
  opt.server.admission.capacity = static_cast<std::size_t>(
      env::long_or("AGINGSIM_SERVE_QUEUE", 64, 1, 1 << 20));
  opt.server.default_deadline_ms =
      env::long_or("AGINGSIM_SERVE_DEADLINE_MS", 30'000, 0);
  opt.server.cache_budget_bytes =
      static_cast<std::size_t>(
          env::long_or("AGINGSIM_SERVE_CACHE_MB", 64, 0, 1 << 20))
      << 20;
  opt.server.service.checkpoint_root =
      env::str_var("AGINGSIM_SERVE_CHECKPOINT_DIR").value_or("");
  opt.server.admission.fairness.quota_rate_per_s =
      env::double_or("AGINGSIM_SERVE_QUOTA_RATE", 0.0, 0.0);
  opt.server.admission.fairness.quota_burst =
      env::double_or("AGINGSIM_SERVE_QUOTA_BURST", 32.0, 1.0);
  opt.server.read_deadline_ms =
      env::long_or("AGINGSIM_SERVE_READ_DEADLINE_MS", 10'000, 0);
  opt.server.idle_timeout_ms =
      env::long_or("AGINGSIM_SERVE_IDLE_TIMEOUT_MS", 0, 0);
  opt.server.max_inflight_per_conn = static_cast<std::uint32_t>(
      env::long_or("AGINGSIM_SERVE_MAX_INFLIGHT", 32, 0, 1 << 20));

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << "agingd: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    const auto need_long = [&](const char* flag, long min_v,
                               long& out) -> bool {
      const auto v = need_value(flag);
      if (!v) return false;
      const auto parsed = env::parse_long(*v, 0);
      if (!parsed || *parsed < min_v) {
        std::cerr << "agingd: " << flag << " wants an integer >= " << min_v
                  << ", got '" << *v << "'\n";
        return false;
      }
      out = *parsed;
      return true;
    };
    long parsed = 0;
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      exit_code = 0;
      return std::nullopt;
    }
    if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--socket") {
      const auto v = need_value("--socket");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.server.socket_path = *v;
    } else if (arg == "--workers") {
      if (!need_long("--workers", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.server.workers = static_cast<int>(parsed);
    } else if (arg == "--queue") {
      if (!need_long("--queue", 1, parsed)) { exit_code = 2; return std::nullopt; }
      opt.server.admission.capacity = static_cast<std::size_t>(parsed);
    } else if (arg == "--deadline-ms") {
      if (!need_long("--deadline-ms", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.server.default_deadline_ms = parsed;
    } else if (arg == "--drain-grace-ms") {
      if (!need_long("--drain-grace-ms", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.server.drain_grace_ms = parsed;
    } else if (arg == "--cache-mb") {
      if (!need_long("--cache-mb", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.server.cache_budget_bytes = static_cast<std::size_t>(parsed) << 20;
    } else if (arg == "--quota-rate") {
      const auto v = need_value("--quota-rate");
      if (!v || !env::parse_double(*v).has_value() ||
          *env::parse_double(*v) < 0.0) {
        std::cerr << "agingd: --quota-rate wants a number >= 0\n";
        exit_code = 2;
        return std::nullopt;
      }
      opt.server.admission.fairness.quota_rate_per_s = *env::parse_double(*v);
    } else if (arg == "--quota-burst") {
      const auto v = need_value("--quota-burst");
      if (!v || !env::parse_double(*v).has_value() ||
          *env::parse_double(*v) < 1.0) {
        std::cerr << "agingd: --quota-burst wants a number >= 1\n";
        exit_code = 2;
        return std::nullopt;
      }
      opt.server.admission.fairness.quota_burst = *env::parse_double(*v);
    } else if (arg == "--read-deadline-ms") {
      if (!need_long("--read-deadline-ms", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.server.read_deadline_ms = parsed;
    } else if (arg == "--idle-timeout-ms") {
      if (!need_long("--idle-timeout-ms", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.server.idle_timeout_ms = parsed;
    } else if (arg == "--max-inflight") {
      if (!need_long("--max-inflight", 0, parsed)) { exit_code = 2; return std::nullopt; }
      opt.server.max_inflight_per_conn = static_cast<std::uint32_t>(parsed);
    } else if (arg == "--checkpoint-dir") {
      const auto v = need_value("--checkpoint-dir");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.server.service.checkpoint_root = *v;
    } else if (arg == "--kernel") {
      const auto v = need_value("--kernel");
      if (!v || (*v != "dense" && *v != "sparse" && *v != "batch")) {
        std::cerr << "agingd: --kernel wants dense|sparse|batch\n";
        exit_code = 2;
        return std::nullopt;
      }
      // Exported rather than stored: every trace path (query lane, batch
      // campaign lane) resolves kAuto through AGINGSIM_KERNEL.
      ::setenv("AGINGSIM_KERNEL", v->c_str(), 1);
    } else if (arg == "--trace") {
      const auto v = need_value("--trace");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.trace_path = *v;
    } else if (arg == "--metrics") {
      const auto v = need_value("--metrics");
      if (!v) { exit_code = 2; return std::nullopt; }
      opt.metrics_path = *v;
    } else {
      std::cerr << "agingd: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      exit_code = 2;
      return std::nullopt;
    }
  }
  return opt;
}

int run_daemon(const Options& opt) {
  // The metrics endpoint and the serve.* counters are part of the daemon's
  // contract, so metrics are always on; tracing stays opt-in (flag or
  // AGINGSIM_TRACE).
  obs::set_metrics_enabled(true);
  if (!opt.trace_path.empty()) obs::set_trace_enabled(true);

  if (pipe(g_signal_pipe) != 0) {
    std::cerr << "agingd: pipe: " << std::strerror(errno) << "\n";
    return 3;
  }
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  // One-shot: the first signal drains gracefully, a second one gets the
  // default disposition — a stuck drain can always be killed.
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  // A client vanishing mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  serve::Server server(opt.server);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "agingd: " << error << "\n";
    return 3;
  }
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "agingd: listening on %s (%d workers, queue %zu, cache %zu"
                 " MiB)\n",
                 opt.server.socket_path.c_str(), opt.server.workers,
                 opt.server.admission.capacity,
                 opt.server.cache_budget_bytes >> 20);
  }

  // Watcher: turns a signal byte into drain(). Released at the end either
  // by the signal itself or by the main thread (shutdown-request path).
  std::thread watcher([&server] {
    char byte = 0;
    while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    server.drain();
  });

  server.wait();  // returns once drained (signal or `shutdown` request)
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
  watcher.join();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);

  if (!opt.quiet) {
    if (g_signal != 0) {
      std::fprintf(stderr, "agingd: drained after signal %d\n",
                   static_cast<int>(g_signal));
    } else {
      std::fprintf(stderr, "agingd: drained\n");
    }
  }
  if (!opt.trace_path.empty()) (void)obs::write_trace_json(opt.trace_path);
  if (!opt.metrics_path.empty()) {
    (void)obs::write_metrics_json(opt.metrics_path);
  }
  obs::flush_env_artifacts();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int exit_code = 0;
  const auto opt = parse_args(argc, argv, exit_code);
  if (!opt) return exit_code;
  try {
    return run_daemon(*opt);
  } catch (const std::exception& e) {
    std::cerr << "agingd: fatal: " << e.what() << "\n";
    return 70;
  }
}
