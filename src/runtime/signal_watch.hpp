#pragma once

// The SIGINT/SIGTERM self-pipe of the long-running tools (agingrun,
// agingd). The handler does the only async-signal-safe things possible —
// record the signal, write one byte — and a watcher thread turns the byte
// into `on_signal`: a runner stop token's cancel() (docs/ROBUSTNESS.md),
// a server drain (docs/SERVING.md). The handlers are one-shot
// (SA_RESETHAND): a second signal gets the default disposition, so a
// stuck shutdown is never more than one more kill away. One SignalWatch
// per process.

#include <functional>
#include <thread>

namespace agingsim::runtime {

class SignalWatch {
 public:
  /// Installs the handlers and starts the watcher. When the self-pipe
  /// cannot be created nothing is installed and armed() is false.
  explicit SignalWatch(std::function<void()> on_signal);
  /// Releases the watcher (without running `on_signal`) and joins it.
  ~SignalWatch();
  SignalWatch(const SignalWatch&) = delete;
  SignalWatch& operator=(const SignalWatch&) = delete;

  bool armed() const noexcept { return watcher_.joinable(); }
  /// The signal received so far, 0 for none.
  static int received() noexcept;

 private:
  std::thread watcher_;
};

}  // namespace agingsim::runtime
