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

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

#include "src/core/cli.hpp"
#include "src/obs/artifacts.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/signal_watch.hpp"
#include "src/serve/server.hpp"

namespace {

using namespace agingsim;

struct Options {
  serve::ServerConfig server{.socket_path = "./agingd.sock"};
  std::string trace_path;
  std::string metrics_path;
  bool quiet = false;
};

void print_usage(std::ostream& os) {
  os << "usage: agingd [options]\n"
        "  --socket PATH        Unix socket path [./agingd.sock]\n"
        "  --workers N          worker threads [4]\n"
        "  --queue N            admission queue capacity [64]\n"
        "  --deadline-ms N      default per-request deadline, 0 = none"
        " [30000]\n"
        "  --drain-grace-ms N   drain grace before cancelling in-flight"
        " work [5000]\n"
        "  --cache-mb N         aged-state cache budget in MiB [64]\n"
        "  --quota-rate R       per-client token-bucket refill req/s, 0 ="
        " quotas off [0]\n"
        "  --quota-burst B      per-client token-bucket capacity [32]\n"
        "  --read-deadline-ms N close a connection whose frame stays"
        " incomplete this long, 0 = off\n"
        "                       [10000]\n"
        "  --idle-timeout-ms N  close connections idle this long (no partial"
        " frame, nothing in\n"
        "                       flight), 0 = never [0]\n"
        "  --max-inflight N     per-connection cap on queued+running"
        " requests, 0 = off [32]\n"
        "  --checkpoint-dir D   campaign checkpoint root [none]\n"
        "  --kernel NAME        step kernel for query/campaign traces:\n"
        "                       dense|sparse|batch [$AGINGSIM_KERNEL or"
        " batch]\n"
        "  --trace PATH         write a Chrome trace-event file on exit\n"
        "  --metrics PATH       write a metrics JSON snapshot on exit\n"
        "  --quiet              suppress startup/drain notes on stderr\n"
        "  --help               this text\n";
}

Options parse_args(int argc, char** argv) {
  Options opt;
  cli::FlagReader args("agingd", print_usage);
  args.text("--socket", opt.server.socket_path);
  args.integer("--workers", opt.server.workers, 1);
  args.integer("--queue", opt.server.admission.capacity, 1);
  args.integer("--deadline-ms", opt.server.default_deadline_ms, 0);
  args.integer("--drain-grace-ms", opt.server.drain_grace_ms, 0);
  std::optional<long> cache_mb;
  args.integer("--cache-mb", cache_mb, 0);
  args.number("--quota-rate", opt.server.admission.fairness.quota_rate_per_s,
              0.0);
  args.number("--quota-burst", opt.server.admission.fairness.quota_burst,
              1.0);
  args.integer("--read-deadline-ms", opt.server.read_deadline_ms, 0);
  args.integer("--idle-timeout-ms", opt.server.idle_timeout_ms, 0);
  args.integer("--max-inflight", opt.server.max_inflight_per_conn, 0);
  args.text("--checkpoint-dir", opt.server.service.checkpoint_root);
  std::string kernel;
  args.choice("--kernel", kernel, {"dense", "sparse", "batch"});
  args.text("--trace", opt.trace_path);
  args.text("--metrics", opt.metrics_path);
  args.on("--quiet", opt.quiet);
  args.parse(argc, argv);
  if (cache_mb) {
    opt.server.cache_budget_bytes = static_cast<std::size_t>(*cache_mb) << 20;
  }
  // Exported rather than stored: every trace path (query lane, batch
  // campaign lane) resolves kAuto through AGINGSIM_KERNEL.
  if (!kernel.empty()) ::setenv("AGINGSIM_KERNEL", kernel.c_str(), 1);
  return opt;
}

int run_daemon(const Options& opt) {
  // The metrics endpoint and the serve.* counters are part of the daemon's
  // contract, so metrics are always on; tracing stays opt-in (flag or
  // AGINGSIM_TRACE).
  obs::set_metrics_enabled(true);
  if (!opt.trace_path.empty()) obs::set_trace_enabled(true);

  // A client vanishing mid-reply must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  serve::Server server(opt.server);
  // The first SIGTERM/SIGINT drains; the watch is released on return.
  const runtime::SignalWatch signal_watch([&server] { server.drain(); });
  if (!signal_watch.armed()) {
    std::cerr << "agingd: pipe: " << std::strerror(errno) << "\n";
    return 3;
  }
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

  server.wait();  // returns once drained (signal or `shutdown` request)

  if (!opt.quiet) {
    if (const int sig = runtime::SignalWatch::received(); sig != 0) {
      std::fprintf(stderr, "agingd: drained after signal %d\n", sig);
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
  const Options opt = parse_args(argc, argv);
  try {
    return run_daemon(opt);
  } catch (const std::exception& e) {
    std::cerr << "agingd: fatal: " << e.what() << "\n";
    return 70;
  }
}
