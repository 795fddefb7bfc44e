#pragma once

// Environment-driven observability artifacts (docs/OBSERVABILITY.md):
//
//   AGINGSIM_TRACE=out.json    enable span recording, write a Chrome
//                              trace-event file at process exit
//   AGINGSIM_METRICS=out.json  enable metrics, write a snapshot at exit
//
// A static initializer in artifacts.cpp reads both variables before
// main(), flips the corresponding recorder on, and registers an atexit
// flush — so every binary linking agingsim (benches, tools, examples)
// emits artifacts with zero per-binary wiring. With neither variable set,
// nothing is enabled and no file is ever created.

#include <string>
#include <string_view>

namespace agingsim::obs {

/// Writes the env-configured artifacts now (no-op when the variables are
/// unset). Also runs from atexit; calling it earlier — e.g. right after a
/// bench body, see AGINGSIM_BENCH_MAIN — just makes the files appear
/// sooner, the atexit rewrite supersedes them with the final state.
void flush_env_artifacts() noexcept;

/// Writes `text` plus a newline to `path` through `path`.tmp and a rename,
/// so a reader (cmp(1), a resume loop, a trace viewer) never sees a torn
/// file. On failure prints "<who>: cannot write|rename ..." on stderr and
/// returns false. The one writer behind the trace and metrics artifacts
/// and the tools' --json reports.
bool write_file_atomic(const std::string& path, std::string_view text,
                       std::string_view who);

}  // namespace agingsim::obs
