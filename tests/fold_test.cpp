// The campaign-unit fold (src/runtime/fold.hpp): the plain and crash-safe
// paths return the same typed values in unit order, a quarantined or
// skipped unit comes back empty, typed progress arrives in unit order, and
// a restored unit folds exactly like a computed one.

#include "src/runtime/fold.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/runtime/checkpoint.hpp"
#include "src/runtime/serial.hpp"
#include "tests/temp_dir.hpp"

namespace agingsim::runtime {
namespace {

namespace fs = std::filesystem;

/// Unit u's value is u squared, carried as a fixed-width payload.
UnitFold<std::uint64_t> squares() {
  return {.compute = [](std::uint64_t unit) { return unit * unit; },
          .encode =
              [](const std::uint64_t& v) { return ByteWriter().u64(v).take(); },
          .decode =
              [](const std::string& payload) {
                ByteReader r(payload);
                const std::uint64_t v = r.u64();
                r.expect_end();
                return v;
              }};
}

RunnerConfig quiet_config() {
  RunnerConfig config;
  config.max_retries = 0;
  return config;
}

TEST(FoldTest, PlainAndRunnerPathsAgree) {
  const auto plain = run_units(9, squares());
  RobustRunner runner(quiet_config());
  UnitFold<std::uint64_t> fold = squares();
  fold.runner = &runner;
  const auto robust = run_units(9, fold);
  ASSERT_EQ(plain.size(), 9u);
  EXPECT_EQ(plain, robust);
  for (std::uint64_t u = 0; u < 9; ++u) EXPECT_EQ(plain[u], u * u);
}

TEST(FoldTest, QuarantinedUnitComesBackEmpty) {
  RobustRunner runner(quiet_config());
  RunReport report;
  UnitFold<std::uint64_t> fold = squares();
  fold.compute = [](std::uint64_t unit) -> std::uint64_t {
    if (unit == 3) throw RunError(ErrorCategory::kPermanent, "poison");
    return unit;
  };
  fold.runner = &runner;
  fold.report = &report;
  const auto values = run_units(6, fold);
  EXPECT_FALSE(values[3].has_value());
  EXPECT_EQ(report.units[3].state, UnitState::kQuarantined);
  for (const std::uint64_t u : {0u, 1u, 2u, 4u, 5u}) EXPECT_EQ(values[u], u);
  EXPECT_NO_THROW(throw_if_interrupted(report, "test"));
}

TEST(FoldTest, SkippedUnitsComeBackEmptyAndThrowIfInterrupted) {
  CancelToken stop;
  stop.cancel();
  RunnerConfig config = quiet_config();
  config.stop = &stop;
  RobustRunner runner(config);
  RunReport report;
  UnitFold<std::uint64_t> fold = squares();
  fold.runner = &runner;
  fold.report = &report;
  const auto values = run_units(4, fold);
  for (const auto& v : values) EXPECT_FALSE(v.has_value());
  EXPECT_THROW(throw_if_interrupted(report, "test"), RunError);
}

TEST(FoldTest, ProgressIsTypedAndInUnitOrder) {
  RobustRunner runner(quiet_config());
  std::vector<std::uint64_t> seen;
  UnitFold<std::uint64_t> fold = squares();
  fold.runner = &runner;
  fold.progress = [&](std::uint64_t unit, const std::uint64_t& value) {
    EXPECT_EQ(unit, seen.size());
    EXPECT_EQ(value, unit * unit);
    seen.push_back(unit);
  };
  (void)run_units(12, fold);
  EXPECT_EQ(seen.size(), 12u);
}

TEST(FoldTest, RestoredUnitsFoldLikeComputedOnes) {
  const fs::path dir = temp_path("fold_test");
  fs::remove_all(dir);
  {
    CheckpointStore store(dir, 0xF01D);
    store.persist(2, ByteWriter().u64(4).take());
    store.persist(5, ByteWriter().u64(25).take());
  }
  CheckpointStore store(dir, 0xF01D);
  ASSERT_EQ(store.load().loaded, 2u);
  RunnerConfig config = quiet_config();
  config.checkpoints = &store;
  RobustRunner runner(config);
  RunReport report;
  UnitFold<std::uint64_t> fold = squares();
  fold.runner = &runner;
  fold.report = &report;
  const auto values = run_units(7, fold);
  EXPECT_EQ(report.restored, 2u);
  EXPECT_EQ(report.units[5].state, UnitState::kRestored);
  EXPECT_EQ(values, run_units(7, squares()));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace agingsim::runtime
