#include "bench/perf/harness.hpp"

#include <pthread.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/core/calibration.hpp"
#include "src/obs/metrics.hpp"
#include "src/report/json.hpp"
#include "src/runtime/serial.hpp"
#include "src/sim/batch_sim.hpp"

namespace agingbench {

using namespace agingsim;

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag) {
  runtime::Digest d;
  d.mix(std::string_view("agingbench/v1")).mix(seed).mix(tag);
  return d.value();
}

void check(Result& r, std::string name, bool ok, std::string detail) {
  r.checks.push_back({std::move(name), ok, std::move(detail)});
}

const TechLibrary& tech() {
  static const TechLibrary t = calibrated_tech_library(1880.0);
  return t;
}

exec::ThreadPool& pool() {
  static exec::ThreadPool p;
  return p;
}

double peak_rss_kb(int pid) {
  const std::string path = pid == 0
                               ? "/proc/self/status"
                               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

CpuPin::CpuPin(int index) {
  if (index < 0 || pthread_getaffinity_np(pthread_self(), sizeof saved_,
                                          &saved_) != 0) {
    return;
  }
  const int allowed = CPU_COUNT(&saved_);
  int nth = index % allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_) && nth-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0;
      return;
    }
  }
}

CpuPin::~CpuPin() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof saved_, &saved_);
}

void snapshot_metrics(Result& r, const char* key) {
  if (obs::metrics_enabled()) {
    r.documents.emplace_back(key, obs::metrics_json());
  }
}

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void write_job(JsonWriter& json, const Job& j) {
  json.begin_object();
  json.key("wall_s").value(j.wall_s);
  json.key("work").value(j.work);
  json.key("attempted").value(j.attempted);
  json.key("failed").value(j.failed);
  json.key("digest").value(hex64(j.digest));
  json.end_object();
}

}  // namespace

void write_result(const Options& opt, const Result& r) {
  JsonWriter json;
  json.begin_object();
  json.key("workload").value(opt.workload);
  json.key("seed").value(opt.seed);
  json.key("seconds").value(opt.seconds);
  json.key("smoke").value(opt.smoke);
  json.key("fingerprint").begin_object();
  json.key("lane_backend").value(BatchTimingSim::lane_backend());
  json.key("compiler").value(kCompiler);
  json.key("build_type").value(AGINGBENCH_BUILD_TYPE);
  json.key("threads").value(exec::default_thread_count());
  json.end_object();
  json.key("setup_s").begin_array();
  for (const double s : r.setup_s) json.value(s);
  json.end_array();
  json.key("warmup");
  write_job(json, r.warmup);
  json.key("jobs").begin_array();
  for (const Job& j : r.jobs) write_job(json, j);
  json.end_array();
  json.key("peak_rss_kb").value(r.peak_rss_kb);
  json.key("checks").begin_array();
  for (const Check& c : r.checks) {
    json.begin_object();
    json.key("name").value(c.name);
    json.key("ok").value(c.ok);
    json.key("detail").value(c.detail);
    json.end_object();
  }
  json.end_array();
  json.key("numbers").begin_object();
  for (const auto& [name, v] : r.numbers) json.key(name).value(v);
  json.end_object();
  json.key("series").begin_object();
  for (const auto& [name, values] : r.series) {
    json.key(name).begin_array();
    for (const double v : values) json.value(v);
    json.end_array();
  }
  json.end_object();
  json.end_object();

  // JsonWriter cannot embed finished documents, so the spliced ones are
  // concatenated around its output.
  std::string doc = "{\"harness\": " + json.str() + ",\n\"documents\": {";
  for (std::size_t i = 0; i < r.documents.size(); ++i) {
    if (i > 0) doc += ",\n";
    doc += "\"" + r.documents[i].first + "\": " + r.documents[i].second;
  }
  doc += "}}\n";

  std::ofstream out(opt.out_path, std::ios::trunc);
  out << doc;
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + opt.out_path);
}

}  // namespace agingbench
