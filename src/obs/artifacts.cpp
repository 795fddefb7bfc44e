#include "src/obs/artifacts.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

#include "src/core/env.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace agingsim::obs {
namespace {

struct EnvArtifacts {
  std::optional<std::string> trace_path;
  std::optional<std::string> metrics_path;
};

EnvArtifacts& env_artifacts() {
  static EnvArtifacts* a = new EnvArtifacts;
  return *a;
}

/// Runs during static initialization, before main(): recorders must be on
/// before the first instrumented site executes, and sites themselves only
/// ever check the enabled flag (one relaxed load).
struct Initializer {
  Initializer() {
    EnvArtifacts& a = env_artifacts();
    a.trace_path = env::str_var("AGINGSIM_TRACE");
    a.metrics_path = env::str_var("AGINGSIM_METRICS");
    if (a.trace_path.has_value()) set_trace_enabled(true);
    if (a.metrics_path.has_value()) set_metrics_enabled(true);
    if (a.trace_path.has_value() || a.metrics_path.has_value()) {
      std::atexit([] { flush_env_artifacts(); });
    }
  }
};

const Initializer g_initializer;

}  // namespace

void flush_env_artifacts() noexcept {
  const EnvArtifacts& a = env_artifacts();
  if (a.trace_path.has_value()) (void)write_trace_json(*a.trace_path);
  if (a.metrics_path.has_value()) (void)write_metrics_json(*a.metrics_path);
}

bool write_file_atomic(const std::string& path, std::string_view text,
                       std::string_view who) {
  const std::string tmp = path + ".tmp";
  const std::string prefix(who);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write %s\n", prefix.c_str(),
                   tmp.c_str());
      return false;
    }
    out << text << "\n";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "%s: cannot rename %s\n", prefix.c_str(),
                 tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace agingsim::obs
