#include "src/runtime/robust_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "src/fault/campaign.hpp"
#include "src/obs/metrics.hpp"
#include "src/runtime/serial.hpp"
#include "src/runtime/stats_codec.hpp"

namespace agingsim::runtime {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;

RunnerConfig fast_config() {
  RunnerConfig config;
  config.backoff_base = milliseconds(1);
  return config;
}

class TempDir {
 public:
  explicit TempDir(const char* tag)
      : path_(fs::temp_directory_path() /
              (std::string("agingsim_runner_test_") + tag)) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

TEST(RobustRunnerTest, PayloadsComeBackInUnitOrder) {
  RobustRunner runner(fast_config());
  RunReport report;
  const auto payloads = runner.run(
      17,
      [](std::uint64_t unit, const CancelToken&) {
        return "payload-" + std::to_string(unit);
      },
      &report);
  ASSERT_EQ(payloads.size(), 17u);
  for (std::uint64_t unit = 0; unit < 17; ++unit) {
    EXPECT_EQ(payloads[unit], "payload-" + std::to_string(unit));
    EXPECT_EQ(report.units[unit].state, UnitState::kComputed);
    EXPECT_EQ(report.units[unit].attempts, 1);
  }
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.computed, 17u);
  EXPECT_EQ(report.retries, 0u);
}

TEST(RobustRunnerTest, TransientFailuresAreRetriedWithBackoff) {
  RunnerConfig config = fast_config();
  config.max_retries = 3;
  RobustRunner runner(config);
  std::atomic<int> calls{0};
  RunReport report;
  const auto payloads = runner.run(
      1,
      [&](std::uint64_t, const CancelToken&) -> std::string {
        if (calls.fetch_add(1) < 2) {
          throw RunError(ErrorCategory::kTransient, "blip");
        }
        return "recovered";
      },
      &report);
  EXPECT_EQ(payloads[0], "recovered");
  EXPECT_EQ(report.units[0].state, UnitState::kComputed);
  EXPECT_EQ(report.units[0].attempts, 3);
  EXPECT_EQ(report.retries, 2u);
}

TEST(RobustRunnerTest, PermanentFailureQuarantinesWithoutAbortingSiblings) {
  RunnerConfig config = fast_config();
  config.max_retries = 5;  // must not be spent on a permanent failure
  RobustRunner runner(config);
  RunReport report;
  const auto payloads = runner.run(
      8,
      [](std::uint64_t unit, const CancelToken&) -> std::string {
        if (unit == 3) {
          throw RunError(ErrorCategory::kPermanent, "poison unit");
        }
        return std::to_string(unit * unit);
      },
      &report);
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.units[3].state, UnitState::kQuarantined);
  EXPECT_EQ(report.units[3].attempts, 1);  // no retry for permanent
  EXPECT_EQ(report.units[3].category, ErrorCategory::kPermanent);
  EXPECT_EQ(report.units[3].error, "poison unit");
  EXPECT_TRUE(payloads[3].empty());
  for (std::uint64_t unit = 0; unit < 8; ++unit) {
    if (unit == 3) continue;
    EXPECT_EQ(payloads[unit], std::to_string(unit * unit));
  }
}

TEST(RobustRunnerTest, RetryBudgetExhaustionQuarantines) {
  RunnerConfig config = fast_config();
  config.max_retries = 2;
  RobustRunner runner(config);
  RunReport report;
  runner.run(
      1,
      [](std::uint64_t, const CancelToken&) -> std::string {
        throw RunError(ErrorCategory::kTransient, "never recovers");
      },
      &report);
  EXPECT_EQ(report.units[0].state, UnitState::kQuarantined);
  EXPECT_EQ(report.units[0].attempts, 3);  // 1 + max_retries
  EXPECT_EQ(report.units[0].category, ErrorCategory::kTransient);
}

TEST(RobustRunnerTest, UnclassifiedExceptionIsPermanent) {
  RunnerConfig config = fast_config();
  config.max_retries = 5;
  RobustRunner runner(config);
  RunReport report;
  runner.run(
      1,
      [](std::uint64_t, const CancelToken&) -> std::string {
        throw std::runtime_error("who knows what this is");
      },
      &report);
  EXPECT_EQ(report.units[0].state, UnitState::kQuarantined);
  EXPECT_EQ(report.units[0].attempts, 1);  // never retried blindly
  EXPECT_EQ(report.units[0].category, ErrorCategory::kPermanent);
  EXPECT_EQ(report.units[0].error, "who knows what this is");
}

TEST(RobustRunnerTest, WatchdogCancelsCooperativeStallThenRetrySucceeds) {
  RunnerConfig config = fast_config();
  config.deadline = milliseconds(30);
  config.max_retries = 1;
  RobustRunner runner(config);
  std::atomic<int> calls{0};
  RunReport report;
  const auto payloads = runner.run(
      1,
      [&](std::uint64_t, const CancelToken& cancel) -> std::string {
        if (calls.fetch_add(1) == 0) {
          // Stall far past the deadline, but cooperatively: the watchdog
          // flips the token and poll() unwinds with RunError(kTimeout).
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (std::chrono::steady_clock::now() < until) {
            cancel.poll();
            std::this_thread::sleep_for(milliseconds(1));
          }
        }
        return "made it";
      },
      &report);
  EXPECT_EQ(payloads[0], "made it");
  EXPECT_EQ(report.units[0].state, UnitState::kComputed);
  EXPECT_EQ(report.units[0].attempts, 2);  // timeout is retryable
}

TEST(RobustRunnerTest, CancelTokenPollThrowsOnlyAfterCancel) {
  CancelToken token;
  EXPECT_NO_THROW(token.poll());
  token.cancel();
  try {
    token.poll();
    FAIL() << "poll after cancel must throw";
  } catch (const RunError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kTimeout);
  }
}

TEST(RobustRunnerTest, BackoffScheduleIsExponentialAndCapped) {
  RunnerConfig config;
  config.backoff_base = milliseconds(25);
  EXPECT_EQ(kBackoffGrowth, 2.0);
  EXPECT_EQ(kBackoffCap, milliseconds(2000));
  EXPECT_EQ(RobustRunner::backoff_delay(config, 1), milliseconds(25));
  EXPECT_EQ(RobustRunner::backoff_delay(config, 2), milliseconds(50));
  EXPECT_EQ(RobustRunner::backoff_delay(config, 3), milliseconds(100));
  EXPECT_EQ(RobustRunner::backoff_delay(config, 7), milliseconds(1600));
  EXPECT_EQ(RobustRunner::backoff_delay(config, 8), milliseconds(2000));
  EXPECT_EQ(RobustRunner::backoff_delay(config, 20), milliseconds(2000));
}

TEST(RobustRunnerTest, InvalidConfigIsRejected) {
  RunnerConfig config;
  config.max_retries = -1;
  EXPECT_THROW(RobustRunner{config}, RunError);
}

TEST(RobustRunnerTest, ResumeRestoresEveryUnitWithoutRecomputing) {
  TempDir dir("full_resume");
  const auto task = [](std::uint64_t unit, const CancelToken&) {
    return "unit " + std::to_string(unit) + " data";
  };
  std::vector<std::string> first;
  {
    CheckpointStore store(dir.path(), 0xC0FFEE);
    store.load();
    RunnerConfig config = fast_config();
    config.checkpoints = &store;
    first = RobustRunner(config).run(9, task);
  }
  CheckpointStore store(dir.path(), 0xC0FFEE);
  EXPECT_EQ(store.load().loaded, 9u);
  RunnerConfig config = fast_config();
  config.checkpoints = &store;
  std::atomic<int> recomputed{0};
  RunReport report;
  const auto second = RobustRunner(config).run(
      9,
      [&](std::uint64_t unit, const CancelToken& cancel) {
        recomputed.fetch_add(1);
        return task(unit, cancel);
      },
      &report);
  EXPECT_EQ(recomputed.load(), 0);
  EXPECT_EQ(report.restored, 9u);
  EXPECT_EQ(report.computed, 0u);
  EXPECT_EQ(second, first);
}

TEST(RobustRunnerTest, PartialResumeComputesOnlyMissingUnits) {
  TempDir dir("partial_resume");
  CheckpointStore store(dir.path(), 1);
  store.persist(1, "restored-1");
  store.persist(3, "restored-3");
  RunnerConfig config = fast_config();
  config.checkpoints = &store;
  RunReport report;
  const auto payloads = RobustRunner(config).run(
      5,
      [](std::uint64_t unit, const CancelToken&) {
        return "computed-" + std::to_string(unit);
      },
      &report);
  EXPECT_EQ(report.restored, 2u);
  EXPECT_EQ(report.computed, 3u);
  EXPECT_EQ(payloads[0], "computed-0");
  EXPECT_EQ(payloads[1], "restored-1");  // restored payload wins
  EXPECT_EQ(payloads[2], "computed-2");
  EXPECT_EQ(payloads[3], "restored-3");
  EXPECT_EQ(payloads[4], "computed-4");
  // The freshly computed units are now persisted too.
  EXPECT_EQ(store.size(), 5u);
}

TEST(RobustRunnerTest, TransientChaosConvergesToChaosFreePayloads) {
  const auto task = [](std::uint64_t unit, const CancelToken&) {
    return "deterministic " + std::to_string(unit * 31 + 7);
  };
  const auto clean = RobustRunner(fast_config()).run(24, task);

  RunnerConfig config = fast_config();
  const auto chaos = ChaosPolicy::parse("3:0.3");  // transient throws only
  ASSERT_TRUE(chaos.has_value());
  config.chaos = *chaos;
  config.max_retries = 10;
  RunReport report;
  const auto under_chaos = RobustRunner(config).run(24, task, &report);
  EXPECT_TRUE(report.all_ok()) << report.summary();
  EXPECT_GT(report.retries, 0u);  // chaos actually fired
  EXPECT_EQ(under_chaos, clean);
}

TEST(RobustRunnerTest, ReportSummaryIsOneReadableLine) {
  RunReport report;
  RobustRunner(fast_config())
      .run(
          3,
          [](std::uint64_t unit, const CancelToken&) -> std::string {
            if (unit == 2) throw RunError(ErrorCategory::kPermanent, "x");
            return "ok";
          },
          &report);
  const std::string line = report.summary();
  EXPECT_NE(line.find("2 computed"), std::string::npos) << line;
  EXPECT_NE(line.find("1 quarantined"), std::string::npos) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
}

// --- integration with the campaign layers -------------------------------

class RuntimeIntegrationTest : public ::testing::Test {
 protected:
  RuntimeIntegrationTest()
      : mult_(build_column_bypass_multiplier(4)),
        pats_(bench::workload(4, 60)) {
    system_.period_ps = 0.6 * critical_path_ps(mult_, bench::tech());
    system_.ahl.width = 4;
    system_.ahl.skip = 2;
    campaign_config_.kind = FaultKind::kDelayOutlier;
    campaign_config_.trials = 6;
    campaign_config_.sites_per_trial = 1;
    campaign_config_.delay_factor = 6.0;
    campaign_config_.seed = 0xBEEF;
  }

  MultiplierNetlist mult_;
  std::vector<OperandPattern> pats_;
  VlSystemConfig system_;
  FaultCampaignConfig campaign_config_;
};

TEST_F(RuntimeIntegrationTest, CampaignRunnerPathMatchesPlainPath) {
  const FaultCampaign campaign(mult_, bench::tech(), system_,
                               campaign_config_);
  const FaultCampaignStats plain = campaign.run(pats_);
  RobustRunner runner(fast_config());
  RunReport report;
  const FaultCampaignStats robust = campaign.run(
      pats_, CampaignRunOptions{.runner = &runner, .report = &report});
  EXPECT_EQ(robust, plain);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.units.size(),
            static_cast<std::size_t>(campaign_config_.trials) + 1);
}

TEST_F(RuntimeIntegrationTest, CampaignResumeReproducesStatsExactly) {
  TempDir dir("campaign_resume");
  const FaultCampaign campaign(mult_, bench::tech(), system_,
                               campaign_config_);
  const std::uint64_t digest = campaign.config_digest(pats_);
  FaultCampaignStats first;
  {
    CheckpointStore store(dir.path(), digest);
    store.load();
    RunnerConfig config = fast_config();
    config.checkpoints = &store;
    RobustRunner runner(config);
    first = campaign.run(pats_, CampaignRunOptions{.runner = &runner});
  }
  CheckpointStore store(dir.path(), digest);
  EXPECT_EQ(store.load().loaded,
            static_cast<std::size_t>(campaign_config_.trials) + 1);
  RunnerConfig config = fast_config();
  config.checkpoints = &store;
  RobustRunner runner(config);
  RunReport report;
  const FaultCampaignStats resumed = campaign.run(
      pats_, CampaignRunOptions{.runner = &runner, .report = &report});
  EXPECT_EQ(resumed, first);
  EXPECT_EQ(report.computed, 0u);
}

TEST_F(RuntimeIntegrationTest, QuarantinedTrialsAreAccountedNotAborted) {
  // Permanent-only chaos: a unit is quarantined iff its first attempt draws
  // an injection. Pick a seed (deterministically) where the baseline
  // (unit 0) is spared and at least one trial is hit.
  ChaosPolicy chaos;
  chaos.rate = 0.3;
  chaos.throw_transient = false;
  chaos.throw_permanent = true;
  std::size_t expect_quarantined = 0;
  for (std::uint64_t seed = 1; seed < 200; ++seed) {
    chaos.seed = seed;
    if (chaos.decide(0, 0) != ChaosAction::kNone) continue;
    std::size_t hit = 0;
    for (std::uint64_t unit = 1;
         unit <= static_cast<std::uint64_t>(campaign_config_.trials);
         ++unit) {
      if (chaos.decide(unit, 0) != ChaosAction::kNone) ++hit;
    }
    if (hit > 0) {
      expect_quarantined = hit;
      break;
    }
  }
  ASSERT_GT(expect_quarantined, 0u) << "no suitable chaos seed found";

  const FaultCampaign campaign(mult_, bench::tech(), system_,
                               campaign_config_);
  RunnerConfig config = fast_config();
  config.chaos = chaos;
  RobustRunner runner(config);
  RunReport report;
  const FaultCampaignStats stats = campaign.run(
      pats_, CampaignRunOptions{.runner = &runner, .report = &report});
  EXPECT_EQ(stats.trials_quarantined, expect_quarantined);
  EXPECT_EQ(stats.trials + stats.trials_quarantined,
            static_cast<std::uint64_t>(campaign_config_.trials));
  EXPECT_EQ(report.quarantined, expect_quarantined);
  EXPECT_GT(stats.ops, 0u);  // surviving trials still aggregated
}

TEST_F(RuntimeIntegrationTest, BaselineQuarantineThrowsPermanent) {
  ChaosPolicy chaos;
  chaos.rate = 1.0;  // every unit, including the baseline
  chaos.throw_transient = false;
  chaos.throw_permanent = true;
  chaos.seed = 7;
  const FaultCampaign campaign(mult_, bench::tech(), system_,
                               campaign_config_);
  RunnerConfig config = fast_config();
  config.chaos = chaos;
  RobustRunner runner(config);
  try {
    campaign.run(pats_, CampaignRunOptions{.runner = &runner});
    FAIL() << "baseline quarantine must throw";
  } catch (const RunError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kPermanent);
    EXPECT_NE(std::string(e.what()).find("baseline"), std::string::npos);
  }
}

TEST_F(RuntimeIntegrationTest, SweepPeriodsRunnerPathMatchesPlain) {
  const auto trace = compute_op_trace(mult_, bench::tech(), pats_);
  const double crit = critical_path_ps(mult_, bench::tech());
  const auto periods = bench::linspace(0.5 * crit, 1.0 * crit, 5);
  const auto plain =
      bench::sweep_periods(mult_, trace, periods, 2, true);
  RobustRunner runner(fast_config());
  RunReport report;
  const auto robust = bench::sweep_periods(mult_, trace, periods, 2, true,
                                           0.0, nullptr, &runner, &report);
  ASSERT_EQ(robust.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(robust[i], plain[i]) << "sweep point " << i;
  }
  EXPECT_TRUE(report.all_ok());
}

TEST_F(RuntimeIntegrationTest, RunStatsCodecRoundTripsBitExact) {
  const auto trace = compute_op_trace(mult_, bench::tech(), pats_);
  VariableLatencySystem sys(mult_, bench::tech(), system_);
  const RunStats stats = sys.run(trace, 0.01);
  const RunStats decoded = decode_run_stats(encode_run_stats(stats));
  EXPECT_EQ(decoded, stats);

  const std::vector<RunStats> row{stats, RunStats{}};
  const std::vector<RunStats> decoded_row =
      decode_run_stats_row(encode_run_stats_row(row));
  ASSERT_EQ(decoded_row.size(), 2u);
  EXPECT_EQ(decoded_row[0], stats);
  EXPECT_EQ(decoded_row[1], RunStats{});
}

TEST_F(RuntimeIntegrationTest, CodecRejectsFieldCountSkewAsCorrupt) {
  ByteWriter w;
  w.u32(7);  // wrong field-count tag
  try {
    decode_run_stats(w.data());
    FAIL() << "field-count skew must be classified corrupt";
  } catch (const RunError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorrupt);
  }
}

// Regression (deadline latency): a task blocked in CancelToken::wait_until
// must unwind within one watchdog tick of the deadline, not after its full
// nominal sleep. Bounds are generous for loaded single-core CI machines —
// the point is "seconds, not the 20 s sleep".
TEST(RobustRunnerTest, WaitUntilUnblocksAtTheDeadlineNotTheSleepEnd) {
  RunnerConfig config = fast_config();
  config.deadline = milliseconds(100);
  config.max_retries = 0;  // quarantine on the first timeout
  RobustRunner runner(config);
  RunReport report;
  const auto t0 = std::chrono::steady_clock::now();
  runner.run(
      1,
      [](std::uint64_t, const CancelToken& cancel) -> std::string {
        cancel.wait_until(std::chrono::steady_clock::now() +
                          std::chrono::seconds(20));
        cancel.poll();
        return "never";
      },
      &report);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(report.units[0].state, UnitState::kQuarantined);
  EXPECT_EQ(report.units[0].category, ErrorCategory::kTimeout);
  EXPECT_LT(elapsed, std::chrono::seconds(10)) << "cancel did not wake the "
                                                  "blocking wait";
}

// Regression (deadline latency): the chaos stall used to poll on a fixed
// 1 ms tick; now it is a single cancellable wait, so the watchdog ends an
// 8 s stall within moments of the 150 ms deadline.
TEST(RobustRunnerTest, ChaosStallEndsAtTheDeadlineNotTheStallEnd) {
  RunnerConfig config = fast_config();
  config.deadline = milliseconds(150);
  config.max_retries = 0;
  config.chaos.seed = 7;
  config.chaos.rate = 1.0;  // every (unit, attempt) draws an action
  config.chaos.throw_transient = false;
  config.chaos.stall = true;
  config.chaos.stall_duration = std::chrono::seconds(8);
  RobustRunner runner(config);
  RunReport report;
  const auto t0 = std::chrono::steady_clock::now();
  runner.run(
      1, [](std::uint64_t, const CancelToken&) { return std::string("x"); },
      &report);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(report.units[0].state, UnitState::kQuarantined);
  EXPECT_EQ(report.units[0].category, ErrorCategory::kTimeout);
  EXPECT_LT(elapsed, std::chrono::seconds(6))
      << "stall outlived its watchdog deadline";
}

TEST(RobustRunnerTest, WaitUntilReturnsAtDeadlineWithoutCancel) {
  CancelToken token;
  const auto t0 = std::chrono::steady_clock::now();
  token.wait_until(t0 + milliseconds(20));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, milliseconds(20));
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.poll());
}

// --- parent-linked tokens and the DeadlineTimer --------------------------

TEST(CancelTokenTest, ChildOfACancelledParentStartsCancelled) {
  CancelToken parent;
  parent.cancel();
  const CancelToken child(&parent);
  EXPECT_TRUE(child.cancelled());
  EXPECT_THROW(child.poll(), RunError);
}

TEST(CancelTokenTest, CancellingTheParentCancelsAndWakesTheChild) {
  CancelToken parent;
  const CancelToken child(&parent);
  const CancelToken unrelated;
  EXPECT_FALSE(child.cancelled());
  const auto t0 = std::chrono::steady_clock::now();
  std::thread waiter([&] {
    child.wait_until(std::chrono::steady_clock::now() +
                     std::chrono::seconds(30));
  });
  std::this_thread::sleep_for(milliseconds(20));
  parent.cancel();
  waiter.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10))
      << "the parent's cancel did not wake the child's wait";
  EXPECT_TRUE(child.cancelled());
  EXPECT_FALSE(unrelated.cancelled());
}

TEST(DeadlineTimerTest, CancelsAnArmedTokenAtItsDeadlineAndDropsFreedOnes) {
  DeadlineTimer timer;
  const auto t0 = DeadlineTimer::Clock::now();
  const auto due = std::make_shared<CancelToken>();
  const auto later = std::make_shared<CancelToken>();
  auto freed = std::make_shared<CancelToken>();
  const std::weak_ptr<CancelToken> freed_ref = freed;
  timer.arm(t0 + milliseconds(50), due);
  timer.arm(t0 + std::chrono::hours(1), later);
  timer.arm(t0 + milliseconds(50), freed);
  freed.reset();
  EXPECT_TRUE(freed_ref.expired()) << "the timer must hold tokens weakly";
  due->wait_until(t0 + std::chrono::seconds(30));
  EXPECT_TRUE(due->cancelled());
  EXPECT_GE(DeadlineTimer::Clock::now() - t0, milliseconds(50));
  EXPECT_LT(DeadlineTimer::Clock::now() - t0, std::chrono::seconds(10));
  EXPECT_FALSE(later->cancelled());
}

TEST(DeadlineTimerTest, CancelAllAtCancelsTokensArmedWithoutADeadline) {
  DeadlineTimer timer;
  const auto token = std::make_shared<CancelToken>();
  timer.arm(DeadlineTimer::Clock::time_point::max(), token);
  const auto t0 = DeadlineTimer::Clock::now();
  timer.cancel_all_at(t0 + milliseconds(30));
  token->wait_until(t0 + std::chrono::seconds(30));
  EXPECT_TRUE(token->cancelled());
  EXPECT_LT(DeadlineTimer::Clock::now() - t0, std::chrono::seconds(10));
}

// runner.watchdog_fires counts attempts cancelled by their own deadline,
// not attempts the external stop token cancelled.
TEST(RobustRunnerTest, WatchdogFiresCountsOnlyOwnDeadlines) {
  const auto fires = [](const CancelToken* stop) {
    const bool metrics_were_on = obs::metrics_enabled();
    obs::set_metrics_enabled(true);
    obs::reset_metrics();
    RunnerConfig config = fast_config();
    config.max_retries = 0;
    config.deadline = milliseconds(stop != nullptr ? 60'000 : 30);
    config.stop = stop;
    RobustRunner(config).run(
        1, [](std::uint64_t, const CancelToken& cancel) -> std::string {
          cancel.wait_until(std::chrono::steady_clock::now() +
                            std::chrono::seconds(30));
          cancel.poll();
          return "unreachable";
        });
    std::uint64_t n = 0;
    for (const obs::MetricValue& m : obs::metrics_snapshot()) {
      if (m.name == "runner.watchdog_fires") n = m.value;
    }
    obs::set_metrics_enabled(metrics_were_on);
    return n;
  };
  EXPECT_EQ(fires(nullptr), 1u);
  CancelToken stop;
  std::thread stopper([&] {
    std::this_thread::sleep_for(milliseconds(30));
    stop.cancel();
  });
  EXPECT_EQ(fires(&stop), 0u);
  stopper.join();
}

// --- external stop token (SIGTERM handlers, daemon drain) ---------------

TEST(RobustRunnerTest, PreCancelledStopTokenSkipsEveryUnit) {
  RunnerConfig config = fast_config();
  CancelToken stop;
  stop.cancel();
  config.stop = &stop;
  RobustRunner runner(config);
  RunReport report;
  std::atomic<int> executed{0};
  const auto payloads = runner.run(
      8,
      [&](std::uint64_t, const CancelToken&) {
        executed.fetch_add(1);
        return std::string("x");
      },
      &report);
  EXPECT_EQ(executed.load(), 0) << "no unit may start after the stop";
  ASSERT_EQ(payloads.size(), 8u);
  EXPECT_EQ(report.skipped, 8u);
  EXPECT_TRUE(report.interrupted());
  EXPECT_FALSE(report.all_ok());
  for (const UnitOutcome& u : report.units) {
    EXPECT_EQ(u.state, UnitState::kSkipped);
    EXPECT_EQ(u.attempts, 0);
  }
}

TEST(RobustRunnerTest, MidRunStopSkipsTheRemainderAndKeepsCompletedWork) {
  TempDir dir("midrun_stop");
  std::optional<CheckpointStore> store(std::in_place, dir.path(), 0x51u);
  store->load();
  RunnerConfig config = fast_config();
  CancelToken stop;
  config.stop = &stop;
  config.checkpoints = &*store;
  RobustRunner runner(config);
  RunReport report;
  // The third unit pulls the plug, the way a signal handler would from
  // another thread. Units are processed by a pool, so exactly *which*
  // units complete is timing-dependent; the invariants below are not.
  std::atomic<int> started{0};
  runner.run(
      32,
      [&](std::uint64_t unit, const CancelToken&) {
        if (started.fetch_add(1) == 2) stop.cancel();
        return "payload-" + std::to_string(unit);
      },
      &report);
  EXPECT_TRUE(report.interrupted());
  EXPECT_GT(report.skipped, 0u) << "a 32-unit run outlived the stop";
  EXPECT_GT(report.computed, 0u);
  EXPECT_EQ(report.computed + report.skipped, 32u);
  // Every computed unit reached the checkpoint store before the return.
  EXPECT_EQ(store->size(), report.computed);
  store.reset();  // the interrupted run exits

  // A resumed run restores the completed units and computes only the
  // skipped ones, producing payloads identical to an uninterrupted run.
  CheckpointStore resumed_store(dir.path(), 0x51u);
  EXPECT_EQ(resumed_store.load().loaded, report.computed);
  RunnerConfig resume_config = fast_config();
  resume_config.checkpoints = &resumed_store;
  RobustRunner resumed(resume_config);
  RunReport resume_report;
  const auto payloads = resumed.run(
      32,
      [](std::uint64_t unit, const CancelToken&) {
        return "payload-" + std::to_string(unit);
      },
      &resume_report);
  EXPECT_EQ(resume_report.restored, report.computed);
  EXPECT_EQ(resume_report.computed, report.skipped);
  EXPECT_TRUE(resume_report.all_ok());
  for (std::uint64_t unit = 0; unit < 32; ++unit) {
    EXPECT_EQ(payloads[unit], "payload-" + std::to_string(unit));
  }
}

TEST(RobustRunnerTest, StopTokenCancelsInFlightAttemptsCooperatively) {
  RunnerConfig config = fast_config();
  config.max_retries = 0;
  CancelToken stop;
  config.stop = &stop;
  RobustRunner runner(config);
  RunReport report;
  const auto t0 = std::chrono::steady_clock::now();
  runner.run(
      1,
      [&](std::uint64_t, const CancelToken& cancel) -> std::string {
        stop.cancel();  // the signal arrives while the unit is running
        // A cooperative task blocks on the token, not a fixed sleep.
        cancel.wait_until(std::chrono::steady_clock::now() +
                          std::chrono::seconds(30));
        cancel.poll();  // throws kTimeout once cancelled
        return "unreachable";
      },
      &report);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10))
      << "in-flight attempt was not cancelled by the stop token";
  EXPECT_EQ(report.computed, 0u);
  EXPECT_FALSE(report.all_ok());
}

// --- ordered progress reporting (streaming campaigns) --------------------

TEST(RobustRunnerTest, ProgressFiresInStrictUnitOrderWithPayloads) {
  RobustRunner runner(fast_config());
  std::vector<std::uint64_t> order;
  std::vector<std::string> seen;
  const auto payloads = runner.run(
      16,
      [](std::uint64_t unit, const CancelToken&) {
        return "p-" + std::to_string(unit);
      },
      nullptr,
      [&](std::uint64_t unit, const std::string& payload, UnitState state) {
        order.push_back(unit);
        seen.push_back(payload);
        EXPECT_EQ(state, UnitState::kComputed);
      });
  ASSERT_EQ(order.size(), 16u);
  for (std::uint64_t unit = 0; unit < 16; ++unit) {
    EXPECT_EQ(order[unit], unit);  // the completion frontier, never a skip
    EXPECT_EQ(seen[unit], payloads[unit]);
  }
}

TEST(RobustRunnerTest, ProgressReplaysRestoredUnitsOnResume) {
  TempDir dir("progress_resume");
  CheckpointStore store(dir.path(), 0xABu);
  store.persist(0, "restored-0");
  store.persist(1, "restored-1");
  store.load();
  RunnerConfig config = fast_config();
  config.checkpoints = &store;
  std::vector<std::pair<std::uint64_t, UnitState>> events;
  RobustRunner(config).run(
      4,
      [](std::uint64_t unit, const CancelToken&) {
        return "computed-" + std::to_string(unit);
      },
      nullptr,
      [&](std::uint64_t unit, const std::string&, UnitState state) {
        events.emplace_back(unit, state);
      });
  // Restored units replay through the callback immediately (in order),
  // then the frontier advances through the computed tail — a resumed
  // streaming client sees the same event sequence as an uninterrupted one.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], (std::pair<std::uint64_t, UnitState>{
                           0, UnitState::kRestored}));
  EXPECT_EQ(events[1], (std::pair<std::uint64_t, UnitState>{
                           1, UnitState::kRestored}));
  EXPECT_EQ(events[2], (std::pair<std::uint64_t, UnitState>{
                           2, UnitState::kComputed}));
  EXPECT_EQ(events[3], (std::pair<std::uint64_t, UnitState>{
                           3, UnitState::kComputed}));
}

TEST(RobustRunnerTest, ProgressFrontierStallsAtQuarantinedUnit) {
  RunnerConfig config = fast_config();
  config.max_retries = 0;
  RobustRunner runner(config);
  std::vector<std::uint64_t> order;
  runner.run(
      6,
      [](std::uint64_t unit, const CancelToken&) -> std::string {
        if (unit == 3) throw RunError(ErrorCategory::kPermanent, "poison");
        return "ok";
      },
      nullptr,
      [&](std::uint64_t unit, const std::string&, UnitState) {
        order.push_back(unit);
      });
  // Units past the quarantined one must NOT be reported: their indices
  // would be unsafe resume cursors (unit 3 never completed). The final
  // response still carries the full report; only the stream stalls.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(RunReportTest, SummaryMentionsSkippedUnits) {
  RunReport report;
  report.units.resize(3);
  report.computed = 1;
  report.skipped = 2;
  const std::string line = report.summary();
  EXPECT_NE(line.find("1 computed"), std::string::npos) << line;
  EXPECT_NE(line.find("2 skipped"), std::string::npos) << line;
}

}  // namespace
}  // namespace agingsim::runtime
