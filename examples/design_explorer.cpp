// Command-line design-space explorer: the library as a tool. Point it at an
// architecture / width / skip / period / age and it prints the full metric
// set for the proposed system and the fixed-latency baseline, and can dump
// the generated netlist as structural Verilog.
//
// Usage:
//   design_explorer [arch=cb|rb|am|wt] [width=16] [skip=7]
//                   [period_ns=0.9] [years=0] [ops=5000] [verilog=out.v]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/aging/scenario.hpp"
#include "src/core/calibration.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/netlist/export.hpp"
#include "src/workload/patterns.hpp"

using namespace agingsim;

namespace {

struct Options {
  MultiplierArch arch = MultiplierArch::kColumnBypass;
  int width = 16;
  int skip = 7;
  double period_ns = 0.9;
  double years = 0.0;
  std::size_t ops = 5000;
  std::string verilog_path;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "bad argument (want key=value): %s\n",
                   arg.c_str());
      return false;
    }
    const std::string key = arg.substr(0, eq);
    const std::string val = arg.substr(eq + 1);
    if (key == "arch") {
      if (val == "am") opt.arch = MultiplierArch::kArray;
      else if (val == "cb") opt.arch = MultiplierArch::kColumnBypass;
      else if (val == "rb") opt.arch = MultiplierArch::kRowBypass;
      else if (val == "wt") opt.arch = MultiplierArch::kWallaceTree;
      else {
        std::fprintf(stderr, "unknown arch %s (am|cb|rb|wt)\n", val.c_str());
        return false;
      }
    } else if (key == "width") {
      opt.width = std::atoi(val.c_str());
    } else if (key == "skip") {
      opt.skip = std::atoi(val.c_str());
    } else if (key == "period_ns") {
      opt.period_ns = std::atof(val.c_str());
    } else if (key == "years") {
      opt.years = std::atof(val.c_str());
    } else if (key == "ops") {
      opt.ops = static_cast<std::size_t>(std::atoll(val.c_str()));
    } else if (key == "verilog") {
      opt.verilog_path = val;
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;

  const TechLibrary tech = calibrated_tech_library();
  const MultiplierNetlist mult = build_multiplier(opt.arch, opt.width);
  std::printf("%s %dx%d: %zu gates, %lld transistors\n", arch_name(opt.arch),
              opt.width, opt.width, mult.netlist.num_gates(),
              static_cast<long long>(mult.netlist.transistor_count()));

  std::vector<double> scales;
  double mean_dvth = 0.0;
  if (opt.years > 0.0) {
    AgingScenario scenario(mult.netlist, tech, BtiModel::calibrated(tech),
                           0xDE5, 1000);
    scales = scenario.delay_scales_at(opt.years);
    mean_dvth = scenario.mean_dvth_at(opt.years);
    std::printf("aged %.1f years: mean dVth %.1f mV\n", opt.years,
                mean_dvth * 1000.0);
  }
  const double crit = critical_path_ps(mult, tech, scales);
  std::printf("critical path: %.3f ns\n\n", crit / 1000.0);

  Rng rng(1);
  const auto pats = uniform_patterns(rng, opt.width, opt.ops);
  const auto trace = compute_op_trace(
      mult, tech, pats, TraceOptions{.gate_delay_scale = scales});

  VlSystemConfig cfg;
  cfg.period_ps = opt.period_ns * 1000.0;
  cfg.ahl.width = opt.width;
  cfg.ahl.skip = opt.skip;
  VariableLatencySystem vl(mult, tech, cfg);
  const RunStats s = vl.run(trace, mean_dvth);
  FixedLatencySystem fixed(mult, tech);
  const RunStats f = fixed.run(trace, crit, mean_dvth);

  std::printf("proposed (Skip-%d @ %.2f ns)      fixed-latency baseline\n",
              opt.skip, opt.period_ns);
  std::printf("  one-cycle ratio  %6.1f%%          (always 1 cycle)\n",
              100.0 * s.one_cycle_ratio);
  std::printf("  errors/10k ops   %6.0f\n", s.errors_per_10k_ops);
  std::printf("  avg latency      %6.3f ns        %6.3f ns\n",
              s.avg_latency_ps / 1000.0, f.avg_latency_ps / 1000.0);
  std::printf("  avg power        %6.2f mW        %6.2f mW\n", s.avg_power_mw,
              f.avg_power_mw);
  std::printf("  EDP              %6.2f mW*ns^2   %6.2f mW*ns^2\n",
              s.edp_mw_ns2, f.edp_mw_ns2);
  std::printf("  => latency %+0.1f%% vs fixed\n",
              100.0 * (s.avg_latency_ps / f.avg_latency_ps - 1.0));
  if (s.undetected > 0) {
    std::printf("  WARNING: %llu undetected violations — the period is below "
                "the Razor coverage bound\n",
                static_cast<unsigned long long>(s.undetected));
  }

  if (!opt.verilog_path.empty()) {
    std::ofstream out(opt.verilog_path);
    out << to_verilog(mult.netlist,
                      std::string(arch_name(opt.arch)) + "_mult");
    std::printf("\nwrote structural Verilog to %s\n",
                opt.verilog_path.c_str());
  }
  return 0;
}
