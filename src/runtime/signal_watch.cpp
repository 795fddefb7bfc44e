#include "src/runtime/signal_watch.hpp"

#include <unistd.h>

#include <cerrno>
#include <csignal>

namespace agingsim::runtime {
namespace {

int g_pipe[2] = {-1, -1};
volatile std::sig_atomic_t g_signal = 0;

}  // namespace

// A plain C function, as a signal handler must be: it records the signal
// and writes one byte, both async-signal-safe.
extern "C" {
static void on_signal_handler(int sig) {
  g_signal = sig;
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(g_pipe[1], &byte, 1);
}
}

SignalWatch::SignalWatch(std::function<void()> on_signal) {
  if (::pipe(g_pipe) != 0) return;
  struct sigaction sa{};
  sa.sa_handler = on_signal_handler;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  watcher_ = std::thread([on_signal = std::move(on_signal)] {
    char byte = 0;
    while (::read(g_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    if (byte == 's') on_signal();
  });
}

SignalWatch::~SignalWatch() {
  if (!armed()) return;
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(g_pipe[1], &byte, 1);
  watcher_.join();
  ::close(g_pipe[0]);
  ::close(g_pipe[1]);
  g_pipe[0] = g_pipe[1] = -1;
}

int SignalWatch::received() noexcept { return static_cast<int>(g_signal); }

}  // namespace agingsim::runtime
