// mc_campaign: the Monte-Carlo campaign path (trials per second).
//
// One job is a McCampaign run over AM, CB and RB at width 16 (block 32, 256
// ops per trial, years {0, 7}, batch kernel) under a RobustRunner with a
// fresh CheckpointStore. The batch kernel and variation sampling dominate;
// checkpoint writes are light (one file per 32 trials).

#include <algorithm>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench/perf/harness.hpp"
#include "src/core/vl_multiplier.hpp"
#include "src/mc/mc_campaign.hpp"
#include "src/runtime/checkpoint.hpp"
#include "src/runtime/robust_runner.hpp"
#include "src/runtime/serial.hpp"

namespace agingbench {
namespace {

using namespace agingsim;

mc::McCampaignConfig campaign_config(const Options& opt) {
  mc::McCampaignConfig cfg;
  cfg.width = 16;
  cfg.trials = opt.smoke ? 32 : 256;
  cfg.block = 32;
  cfg.ops = opt.smoke ? 64 : 256;
  cfg.seed = derive_seed(opt.seed, "mc/dies");
  cfg.workload_seed = derive_seed(opt.seed, "mc/operands");
  cfg.years = {0.0, 7.0};
  cfg.kernel = SimKernel::kBatch;
  return cfg;
}

std::uint64_t digest_result(const mc::McResult& result) {
  runtime::Digest d;
  for (const mc::McArchResult& a : result.arches) {
    d.mix(static_cast<int>(a.arch)).mix(a.fresh_critical_path_ps);
    d.mix(a.period_ps).mix(a.trials_quarantined);
    for (const mc::McTrialRecord& rec : a.records) {
      d.mix(rec.max_delay_ps).mix(rec.errors_per_10k);
    }
  }
  return d.value();
}

std::uintmax_t dir_bytes(const std::filesystem::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

Job run_campaign(const mc::McCampaign& campaign,
                 const std::filesystem::path& dir, mc::McResult* result) {
  std::filesystem::remove_all(dir);
  const Clock::time_point t0 = Clock::now();
  runtime::CheckpointStore store(dir, campaign.config_digest());
  {
    obs::TraceSpan span("checkpoint.attach");
    store.load();
  }
  runtime::RunnerConfig rc;
  rc.checkpoints = &store;
  rc.pool = &pool();
  runtime::RobustRunner runner(rc);
  runtime::RunReport report;
  {
    obs::TraceSpan span("mc.campaign");
    *result =
        campaign.run(mc::McRunOptions{.runner = &runner, .report = &report});
  }
  Job job;
  job.wall_s = seconds_since(t0);
  const std::size_t years = campaign.config().years.size();
  for (const mc::McArchResult& a : result->arches) {
    job.work += a.trials_completed(years);
    job.failed += a.trials_quarantined;
  }
  job.attempted = campaign.config().arches.size() *
                  static_cast<std::uint64_t>(campaign.config().trials);
  job.digest = digest_result(*result);
  return job;
}

}  // namespace

void run_mc_campaign(const Options& opt, Result& r) {
  const mc::McCampaignConfig cfg = campaign_config(opt);
  std::unique_ptr<mc::McCampaign> campaign;
  for (int i = 0; i < setup_count(opt); ++i) {
    campaign.reset();
    campaign = timed_setup(r, [&] {
      obs::TraceSpan span("mc.construct");
      return std::make_unique<mc::McCampaign>(tech(), cfg);
    });
  }
  const std::filesystem::path dir =
      std::filesystem::path(opt.work_dir) / "mc-store";

  mc::McResult reference;
  double gates = 0.0;
  {
    obs::TraceSpan span("bench.warmup");
    r.warmup = run_campaign(*campaign, dir, &reference);
  }

  {
    obs::TraceSpan span("bench.verify");
    // Block 0 of every architecture recomputed by a dense-kernel twin must
    // equal the batch kernel's records exactly.
    mc::McCampaignConfig dense_cfg = cfg;
    dense_cfg.kernel = SimKernel::kDense;
    const mc::McCampaign twin(tech(), dense_cfg);
    const std::size_t block_records =
        static_cast<std::size_t>(cfg.block) * cfg.years.size();
    const auto dense_blocks = exec::parallel_for_indexed(
        pool(), cfg.arches.size(), [&](std::size_t a) {
          obs::TraceSpan block_span("mc.compute_block", a);
          return twin.compute_block(a, 0);
        });
    for (std::size_t a = 0; a < cfg.arches.size(); ++a) {
      const auto& records = reference.arches[a].records;
      const std::vector<mc::McTrialRecord> batch_block(
          records.begin(),
          records.begin() + static_cast<std::ptrdiff_t>(
                                std::min(block_records, records.size())));
      const std::string arch = arch_name(cfg.arches[a]);
      check(r, "block0_dense_equals_batch_" + arch,
            dense_blocks[a] == batch_block);
      // The campaign's fresh critical path is plain STA of a fresh netlist.
      const MultiplierNetlist mult = [&] {
        obs::TraceSpan span("netlist.build");
        return build_multiplier(cfg.arches[a], cfg.width);
      }();
      gates += static_cast<double>(mult.netlist.num_gates());
      obs::TraceSpan span("sta.critical_path");
      check(r, "fresh_critical_path_" + arch,
            critical_path_ps(mult, tech()) ==
                campaign->fresh_critical_path_ps(a));
    }
  }

  {
    obs::TraceSpan window("bench.timed");
    snapshot_metrics(r, "metrics_before");
    run_jobs(opt, r, [&] {
      mc::McResult result;
      return run_campaign(*campaign, dir, &result);
    });
    snapshot_metrics(r, "metrics_after");
  }
  r.numbers.emplace_back("checkpoint_dir_bytes",
                         static_cast<double>(dir_bytes(dir)));
  r.numbers.emplace_back("ops_per_trial",
                         static_cast<double>(cfg.ops * cfg.years.size()));
  // Every architecture runs the same number of batch words.
  r.numbers.emplace_back("netlist_gates", gates);
  r.numbers.emplace_back("mean_gates_per_word",
                         gates / static_cast<double>(cfg.arches.size()));
  std::filesystem::remove_all(dir);
}

}  // namespace agingbench
