// Failure-injection tests for the checkpoint write path
// (src/runtime/checkpoint.cpp). The write hook stands in for write(2) and
// the sync hook for fdatasync(2), so the tests can exercise the exact
// syscall contracts — short writes, EINTR storms, ENOSPC, a failing sync —
// that a loaded filesystem produces and a quiet CI machine never does.

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <optional>
#include <string>

#include "src/runtime/checkpoint.hpp"
#include "src/runtime/run_error.hpp"

namespace agingsim::runtime {
namespace {

namespace fs = std::filesystem;

// The hook is a plain function pointer, so behavior is steered through
// file-scope state reset in SetUp.
std::atomic<long> g_bytes_until_failure{-1};  // -1: never fail
std::atomic<int> g_failure_errno{ENOSPC};
std::atomic<int> g_eintr_budget{0};  // EINTR returns before each real write
std::atomic<bool> g_single_byte{false};
std::atomic<int> g_sync_errno{0};  // 0: fdatasync succeeds

long faulty_write(int fd, const void* buf, std::size_t count) {
  if (g_eintr_budget.load() > 0) {
    g_eintr_budget.fetch_sub(1);
    errno = EINTR;
    return -1;
  }
  const long remaining = g_bytes_until_failure.load();
  if (remaining == 0) {
    errno = g_failure_errno.load();
    return -1;
  }
  std::size_t n = count;
  if (g_single_byte.load()) n = 1;
  if (remaining > 0 && static_cast<long>(n) > remaining) {
    n = static_cast<std::size_t>(remaining);
  }
  const ssize_t written = ::write(fd, buf, n);
  if (written > 0 && remaining > 0) {
    g_bytes_until_failure.fetch_sub(written);
  }
  return written;
}

int faulty_sync(int fd) {
  if (g_sync_errno.load() != 0) {
    errno = g_sync_errno.load();
    return -1;
  }
  return ::fdatasync(fd);
}

class CheckpointFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           (std::string("agingsim_ckpt_fault_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    g_bytes_until_failure = -1;
    g_failure_errno = ENOSPC;
    g_eintr_budget = 0;
    g_single_byte = false;
    g_sync_errno = 0;
    set_checkpoint_write_hook_for_testing(&faulty_write);
    set_checkpoint_sync_hook_for_testing(&faulty_sync);
  }

  void TearDown() override {
    set_checkpoint_write_hook_for_testing(nullptr);
    set_checkpoint_sync_hook_for_testing(nullptr);
    fs::remove_all(dir_);
  }

  std::size_t files_with_extension(const char* ext) const {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ext) ++n;
    }
    return n;
  }

  fs::path dir_;
};

TEST_F(CheckpointFaultTest, EnospcIsPermanentWithActionableMessage) {
  {
    CheckpointStore store(dir_, /*config_digest=*/0xABCDu);
    g_bytes_until_failure = 0;  // first write fails: disk full from byte one
    try {
      store.persist(3, "payload");
      FAIL() << "persist on a full disk must throw";
    } catch (const RunError& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kPermanent)
          << "retrying a full disk burns the retry budget for nothing";
      const std::string what = e.what();
      EXPECT_NE(what.find("disk full (ENOSPC"), std::string::npos) << what;
      EXPECT_NE(what.find("--resume"), std::string::npos) << what;
    }
    EXPECT_FALSE(store.has(3));
  }
  // No torn record is left behind: a fresh store finds nothing to load
  // and nothing to discard.
  EXPECT_EQ(files_with_extension(".tmp"), 0u);
  g_bytes_until_failure = -1;
  CheckpointStore resumed(dir_, 0xABCDu);
  const CheckpointScan scan = resumed.load();
  EXPECT_EQ(scan.loaded, 0u);
  EXPECT_EQ(scan.discarded, 0u);
}

TEST_F(CheckpointFaultTest, PartialWriteThenEnospcLeavesNoTornCheckpoint) {
  {
    CheckpointStore store(dir_, 0xABCDu);
    ASSERT_NO_THROW(store.persist(1, "unit-one-payload"));  // complete unit
    g_bytes_until_failure = 10;  // the next record dies mid-write
    EXPECT_THROW(store.persist(2, "unit-two-payload"), RunError);
    EXPECT_EQ(files_with_extension(".tmp"), 0u);
    EXPECT_EQ(files_with_extension(".log"), 1u);  // the store's one segment
  }

  // A fresh store (the restarted process) sees exactly the complete unit.
  g_bytes_until_failure = -1;
  CheckpointStore resumed(dir_, 0xABCDu);
  const CheckpointScan scan = resumed.load();
  EXPECT_EQ(scan.loaded, 1u);
  EXPECT_EQ(scan.discarded, 0u);
  EXPECT_EQ(resumed.restore(1).value(), "unit-one-payload");
  EXPECT_FALSE(resumed.has(2));
  // And the unit that failed can now be written.
  ASSERT_NO_THROW(resumed.persist(2, "unit-two-payload"));
  EXPECT_EQ(resumed.restore(2).value(), "unit-two-payload");
}

TEST_F(CheckpointFaultTest, ShortWritesAreContinuedToCompletion) {
  g_single_byte = true;  // every write(2) returns a 1-byte partial count
  const std::string payload(257, 'z');
  ASSERT_NO_THROW(CheckpointStore(dir_, 0x1234u).persist(7, payload));

  CheckpointStore reread(dir_, 0x1234u);
  EXPECT_EQ(reread.load().loaded, 1u);
  EXPECT_EQ(reread.restore(7).value(), payload);
}

TEST_F(CheckpointFaultTest, EintrStormIsRetriedNotFatal) {
  g_eintr_budget = 64;  // a burst of interrupted syscalls before progress
  ASSERT_NO_THROW(CheckpointStore(dir_, 0x1234u).persist(5, "signal-riddled"));
  CheckpointStore reread(dir_, 0x1234u);
  EXPECT_EQ(reread.load().loaded, 1u);
  EXPECT_EQ(reread.restore(5).value(), "signal-riddled");
}

TEST_F(CheckpointFaultTest, NonEnospcErrorsNameTheFailingStep) {
  CheckpointStore store(dir_, 0x1234u);
  g_bytes_until_failure = 0;
  g_failure_errno = EIO;
  try {
    store.persist(1, "x");
    FAIL() << "EIO must throw";
  } catch (const RunError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kPermanent);
    const std::string what = e.what();
    EXPECT_NE(what.find("write failed:"), std::string::npos) << what;
    EXPECT_EQ(what.find("disk full"), std::string::npos) << what;
  }
  EXPECT_EQ(files_with_extension(".tmp"), 0u);
}

TEST_F(CheckpointFaultTest, FailingSyncPoisonsTheStore) {
  std::optional<CheckpointStore> store(std::in_place, dir_, 0x1234u);
  ASSERT_NO_THROW(store->persist(1, "synced"));
  g_sync_errno = EIO;
  const auto expect_fdatasync_error = [&](std::uint64_t unit) {
    try {
      store->persist(unit, "unsynced");
      ADD_FAILURE() << "persist after a failed sync must throw";
    } catch (const RunError& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kPermanent);
      const std::string what = e.what();
      EXPECT_NE(what.find("fdatasync failed:"), std::string::npos) << what;
    }
    EXPECT_FALSE(store->has(unit));
  };
  expect_fdatasync_error(2);
  // The failure sticks: a healthy sync later cannot vouch for records the
  // failed one may have lost.
  g_sync_errno = 0;
  expect_fdatasync_error(3);

  store.reset();  // the poisoned run exits
  CheckpointStore resumed(dir_, 0x1234u);
  resumed.load();
  EXPECT_EQ(resumed.restore(1).value(), "synced");
  EXPECT_FALSE(resumed.has(3));
}

TEST_F(CheckpointFaultTest, PersistClosesItsSyncDescriptorOnEveryPath) {
  // Each persist() opens a descriptor of its own to sync through; a failed
  // write, a failed sync and a poisoned store must all close it again.
  const auto open_fds = [] {
    return std::distance(fs::directory_iterator("/proc/self/fd"),
                         fs::directory_iterator());
  };
  CheckpointStore store(dir_, 0x1234u);
  ASSERT_NO_THROW(store.persist(0, "opens the segment"));
  const auto before = open_fds();
  ASSERT_NO_THROW(store.persist(1, "synced"));
  g_bytes_until_failure = 0;
  EXPECT_THROW(store.persist(2, "write fails"), RunError);
  g_bytes_until_failure = -1;
  g_sync_errno = EIO;
  EXPECT_THROW(store.persist(3, "sync fails"), RunError);
  g_sync_errno = 0;
  EXPECT_THROW(store.persist(4, "poisoned"), RunError);
  EXPECT_EQ(open_fds(), before);
}

TEST_F(CheckpointFaultTest, EnospcAtSyncIsReportedAsDiskFull) {
  CheckpointStore store(dir_, 0x1234u);
  g_sync_errno = ENOSPC;
  try {
    store.persist(1, "x");
    FAIL() << "ENOSPC at fdatasync must throw";
  } catch (const RunError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kPermanent);
    const std::string what = e.what();
    EXPECT_NE(what.find("disk full (ENOSPC at fdatasync)"), std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace agingsim::runtime
