// Monte-Carlo campaign engine contracts (src/mc/): byte-identical JSON for
// any thread count, byte-identical resume after a simulated kill, bit-exact
// block codec, and the statistical invariants the CI job asserts on the
// real artifact (band ordering, aging monotonicity, surface shape).

#include "src/mc/mc_campaign.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "src/mc/mc_report.hpp"
#include "src/obs/metrics.hpp"
#include "src/report/json.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/run_error.hpp"
#include "tests/killed_store.hpp"
#include "tests/temp_dir.hpp"

namespace agingsim::mc {
namespace {

namespace fs = std::filesystem;

class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    if (const char* old = std::getenv("AGINGSIM_THREADS")) old_ = old;
    ::setenv("AGINGSIM_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (old_.has_value()) {
      ::setenv("AGINGSIM_THREADS", old_->c_str(), 1);
    } else {
      ::unsetenv("AGINGSIM_THREADS");
    }
  }

 private:
  std::optional<std::string> old_;
};

/// Small-but-not-trivial campaign: 3 blocks of unequal final size, two
/// evaluation years, stratification narrower than the trial count.
McCampaignConfig small_config() {
  McCampaignConfig cfg;
  cfg.width = 8;
  cfg.arches = {MultiplierArch::kColumnBypass};
  cfg.trials = 10;
  cfg.block = 4;  // blocks of 4, 4, 2
  cfg.ops = 24;
  cfg.strata = 4;
  return cfg;
}

std::string campaign_json(const McCampaign& campaign, const McResult& result) {
  JsonWriter json;
  json.begin_object();
  write_mc_json(json, campaign.config(), result, McReportOptions{});
  json.end_object();
  return json.str();
}

TEST(McCampaignTest, JsonIsByteIdenticalAcrossThreadCounts) {
  const McCampaign campaign(bench::tech(), small_config());
  std::string json1, json8;
  {
    ScopedThreadsEnv scoped("1");
    json1 = campaign_json(campaign, campaign.run());
  }
  {
    ScopedThreadsEnv scoped("8");
    json8 = campaign_json(campaign, campaign.run());
  }
  EXPECT_EQ(json1, json8);
}

TEST(McCampaignTest, RobustRunnerMatchesPlainPath) {
  const McCampaign campaign(bench::tech(), small_config());
  const std::string plain = campaign_json(campaign, campaign.run());
  runtime::RunnerConfig config;
  config.max_retries = 0;
  runtime::RobustRunner runner(config);
  runtime::RunReport report;
  const std::string robust = campaign_json(
      campaign, campaign.run(McRunOptions{.runner = &runner,
                                          .report = &report}));
  EXPECT_EQ(plain, robust);
  EXPECT_TRUE(report.all_ok());
}

TEST(McCampaignTest, KillAndResumeIsByteIdentical) {
  const fs::path dir = temp_path("mc_resume_test");
  fs::remove_all(dir);
  const McCampaign campaign(bench::tech(), small_config());
  const std::uint64_t digest = campaign.config_digest();
  ASSERT_EQ(campaign.num_units(), 3u);

  // Golden uninterrupted run, all 3 units checkpointed.
  std::string golden;
  {
    runtime::CheckpointStore store(dir, digest);
    store.load();
    runtime::RunnerConfig config;
    config.checkpoints = &store;
    runtime::RobustRunner runner(config);
    golden = campaign_json(campaign, campaign.run(
                                         McRunOptions{.runner = &runner}));
  }

  // "Kill" after the first unit: units 1 and 2 never persisted.
  const fs::path killed = dir / "killed";
  ASSERT_EQ(persist_kept_units(dir, killed, digest, 1), 1u);

  // Resume restores unit 0 and recomputes the rest — byte-identical JSON.
  {
    ScopedThreadsEnv scoped("8");
    runtime::CheckpointStore store(killed, digest);
    ASSERT_EQ(store.load().loaded, 1u);
    runtime::RunnerConfig config;
    config.checkpoints = &store;
    runtime::RobustRunner runner(config);
    const std::string resumed = campaign_json(
        campaign, campaign.run(McRunOptions{.runner = &runner}));
    EXPECT_EQ(golden, resumed);
  }
  fs::remove_all(dir);
}

TEST(McCampaignTest, BlockCodecRoundTripsBitExactly) {
  const McCampaign campaign(bench::tech(), small_config());
  for (std::size_t block = 0; block < campaign.blocks_per_arch(); ++block) {
    const auto records = campaign.compute_block(0, block);
    EXPECT_EQ(decode_mc_block(encode_mc_block(records)), records);
  }
  EXPECT_TRUE(decode_mc_block(encode_mc_block({})).empty());
  // Truncated payloads are corrupt, not garbage records.
  const std::string payload = encode_mc_block(campaign.compute_block(0, 0));
  EXPECT_THROW(decode_mc_block(payload.substr(0, payload.size() - 1)),
               runtime::RunError);
  EXPECT_THROW(decode_mc_block(payload + "x"), runtime::RunError);
}

TEST(McCampaignTest, BandsOrderedAndAgingMonotone) {
  McCampaignConfig cfg = small_config();
  cfg.trials = 24;
  const McCampaign campaign(bench::tech(), cfg);
  const McResult result = campaign.run();
  ASSERT_EQ(result.arches.size(), 1u);
  const McArchResult& arch = result.arches[0];
  const std::size_t years = cfg.years.size();
  EXPECT_EQ(arch.trials_completed(years),
            static_cast<std::uint64_t>(cfg.trials));
  EXPECT_EQ(arch.trials_quarantined, 0u);
  EXPECT_GT(arch.fresh_critical_path_ps, 0.0);

  for (std::size_t y = 0; y < years; ++y) {
    const QuantileBand delay = delay_band(arch, years, y);
    EXPECT_GT(delay.p50, 0.0);
    EXPECT_LE(delay.p50, delay.p99);
    EXPECT_LE(delay.p99, delay.p99_99);
    const QuantileBand errors = error_band(arch, years, y);
    EXPECT_LE(errors.p50, errors.p99);
    EXPECT_LE(errors.p99, errors.p99_99);
  }

  // Aging only slows a die down: every per-trial scale at year 7 dominates
  // its year-0 counterpart (variation is shared, degradation >= 0), so the
  // per-trial max delay — and hence each band — is monotone in years.
  for (std::size_t t = 0; t < arch.trials_completed(years); ++t) {
    EXPECT_GE(arch.records[t * years + 1].max_delay_ps,
              arch.records[t * years + 0].max_delay_ps);
  }
}

TEST(McCampaignTest, FailureSurfaceIsMonotoneNonIncreasing) {
  McCampaignConfig cfg = small_config();
  cfg.trials = 24;
  const McCampaign campaign(bench::tech(), cfg);
  const McResult result = campaign.run();
  const FailureSurface surface =
      failure_surface(result.arches[0], cfg.years.size(),
                      cfg.years.size() - 1, 0.95, 1.05, 15);
  ASSERT_EQ(surface.period_ps.size(), 15u);
  ASSERT_EQ(surface.failure_probability.size(), 15u);
  for (std::size_t k = 1; k < surface.period_ps.size(); ++k) {
    EXPECT_GT(surface.period_ps[k], surface.period_ps[k - 1]);
    EXPECT_LE(surface.failure_probability[k],
              surface.failure_probability[k - 1]);
  }
  // Population-anchored axis: the sweep spans the whole 1 -> 0 transition.
  EXPECT_DOUBLE_EQ(surface.failure_probability.front(), 1.0);
  EXPECT_DOUBLE_EQ(surface.failure_probability.back(), 0.0);
}

TEST(McCampaignTest, DigestTracksSamplingConfigButNotKernel) {
  McCampaignConfig cfg = small_config();
  const McCampaign base(bench::tech(), cfg);

  McCampaignConfig other_kernel = cfg;
  other_kernel.kernel = SimKernel::kSparse;
  EXPECT_EQ(base.config_digest(),
            McCampaign(bench::tech(), other_kernel).config_digest());

  McCampaignConfig other_seed = cfg;
  other_seed.seed ^= 1;
  EXPECT_NE(base.config_digest(),
            McCampaign(bench::tech(), other_seed).config_digest());

  McCampaignConfig other_sigma = cfg;
  other_sigma.variation.sigma_grid += 0.01;
  EXPECT_NE(base.config_digest(),
            McCampaign(bench::tech(), other_sigma).config_digest());
}

TEST(McCampaignTest, KernelsAgreeBitExactly) {
  // The corner path (kBatch) against the per-trial sparse traces, every
  // block of AM/CB/RB16. No shape fills whole 32-lane passes: blocks of 5
  // trials x 3 years are 15 cells (the last 6), blocks of 50 x 2 years are
  // 100 cells, four passes of 32/32/32/4 (the last 20), and 11 x 3 years
  // are 33 cells, so trial 10's last year waits for the second pass.
  struct Shape {
    int trials, block;
    std::vector<double> years;
  };
  for (const Shape& shape : {Shape{12, 5, {0.0, 3.5, 7.0}},
                             Shape{60, 50, {0.0, 7.0}},
                             Shape{11, 11, {0.0, 3.5, 7.0}}}) {
    McCampaignConfig batch;
    batch.width = 16;
    batch.trials = shape.trials;
    batch.block = shape.block;
    batch.years = shape.years;
    batch.ops = 24;
    batch.strata = 4;
    batch.kernel = SimKernel::kBatch;
    McCampaignConfig sparse = batch;
    sparse.kernel = SimKernel::kSparse;
    const McCampaign a(bench::tech(), batch);
    const McCampaign b(bench::tech(), sparse);
    ASSERT_EQ(a.config().arches.size(), 3u);
    for (std::size_t arch = 0; arch < a.config().arches.size(); ++arch) {
      for (std::size_t block = 0; block < a.blocks_per_arch(); ++block) {
        EXPECT_EQ(a.compute_block(arch, block), b.compute_block(arch, block))
            << "block " << block << " of " << shape.block << " x "
            << shape.years.size() << " years, arch " << arch;
      }
    }
  }
}

TEST(McCampaignTest, DefaultKernelFollowsTheEnvironment) {
  // The default (kAuto) scores blocks in corner lanes unless
  // AGINGSIM_KERNEL names a scalar kernel; then every (trial, year) cell
  // replays through its own dense trace, with identical records.
  McCampaignConfig cfg = small_config();
  ASSERT_EQ(cfg.kernel, SimKernel::kAuto);
  const auto block0 = [&](const char* kernel, std::uint64_t* dense_steps,
                          std::uint64_t* corner_steps) {
    const char* old = std::getenv("AGINGSIM_KERNEL");
    const std::optional<std::string> saved =
        old != nullptr ? std::optional<std::string>(old) : std::nullopt;
    if (kernel != nullptr) {
      ::setenv("AGINGSIM_KERNEL", kernel, 1);
    } else {
      ::unsetenv("AGINGSIM_KERNEL");
    }
    const bool metrics_were_on = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
    const auto records = McCampaign(bench::tech(), cfg).compute_block(0, 0);
    for (const obs::MetricValue& m : obs::metrics_snapshot()) {
      if (m.name == "sim.steps_dense") *dense_steps = m.value;
      if (m.name == "sim.corner.steps") *corner_steps = m.value;
    }
    obs::set_metrics_enabled(metrics_were_on);
    if (saved) {
      ::setenv("AGINGSIM_KERNEL", saved->c_str(), 1);
    } else {
      ::unsetenv("AGINGSIM_KERNEL");
    }
    return records;
  };
  std::uint64_t dense_steps = 0, corner_steps = 0;
  const auto per_trial = block0("dense", &dense_steps, &corner_steps);
  EXPECT_GT(dense_steps, 0u);
  EXPECT_EQ(corner_steps, 0u);
  const auto lanes = block0(nullptr, &dense_steps, &corner_steps);
  EXPECT_EQ(dense_steps, 0u);
  EXPECT_GT(corner_steps, 0u);
  EXPECT_EQ(per_trial, lanes);
}

TEST(McCampaignTest, RejectsDegenerateConfigs) {
  const auto reject = [](auto mutate) {
    McCampaignConfig cfg = small_config();
    mutate(cfg);
    EXPECT_THROW(McCampaign(bench::tech(), cfg), std::invalid_argument);
  };
  reject([](McCampaignConfig& c) { c.trials = 0; });
  reject([](McCampaignConfig& c) { c.block = 0; });
  reject([](McCampaignConfig& c) { c.ops = 0; });
  reject([](McCampaignConfig& c) { c.strata = 0; });
  reject([](McCampaignConfig& c) { c.arches.clear(); });
  reject([](McCampaignConfig& c) { c.years.clear(); });
  reject([](McCampaignConfig& c) { c.period_frac = 0.0; });
  reject([](McCampaignConfig& c) { c.years = {0.0, std::nan("")}; });
  reject([](McCampaignConfig& c) {
    c.years = {0.0, std::numeric_limits<double>::infinity()};
  });
  // Refused up front, not by the aging model deep inside construction.
  McCampaignConfig nan_year = small_config();
  nan_year.years = {std::nan("")};
  try {
    const McCampaign campaign(bench::tech(), nan_year);
    ADD_FAILURE() << "a NaN evaluation year was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace agingsim::mc
