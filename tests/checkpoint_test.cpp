#include "src/runtime/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/run_error.hpp"
#include "src/runtime/serial.hpp"

namespace agingsim::runtime {
namespace {

namespace fs = std::filesystem;

// --- serial.hpp primitives the checkpoint format is built on ------------

TEST(SerialTest, Crc32KnownVector) {
  // The IEEE 802.3 check value — pins the polynomial and reflection.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(SerialTest, ByteCodecRoundTripsBitExact) {
  ByteWriter w;
  w.u8(0x7F).u32(0xDEADBEEFu).u64(0x0123456789ABCDEFull).i64(-42);
  w.f64(0.1).f64(-0.0).boolean(true).str("hello\0world");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0x7F);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello");  // C-string literal stops at the NUL
  EXPECT_NO_THROW(r.expect_end());
}

TEST(SerialTest, TruncatedReadThrowsCorrupt) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.data());
  r.u32();
  try {
    r.u32();
    FAIL() << "read past the end must throw";
  } catch (const RunError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kCorrupt);
  }
}

TEST(SerialTest, DigestSensitiveToOrderAndType) {
  const auto d = [](auto&&... vs) {
    Digest digest;
    (digest.mix(vs), ...);
    return digest.value();
  };
  EXPECT_NE(d(1, 2), d(2, 1));
  EXPECT_NE(d(std::string_view("ab"), std::string_view("c")),
            d(std::string_view("a"), std::string_view("bc")));
  EXPECT_EQ(d(0.5, 7), d(0.5, 7));
}

// --- CheckpointStore ----------------------------------------------------

constexpr std::size_t kHeaderBytes = 40;  // a record's header, before the payload

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("agingsim_ckpt_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// The segment files in the directory, sorted.
  std::vector<fs::path> segments() const {
    std::vector<fs::path> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".log") out.push_back(entry.path());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The one segment a single store wrote.
  fs::path segment() const {
    const std::vector<fs::path> all = segments();
    EXPECT_EQ(all.size(), 1u);
    return all.empty() ? dir_ / "missing" : all.front();
  }

  std::string read_file(const fs::path& p) const {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void write_file(const fs::path& p, const std::string& bytes) const {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  /// Loads a fresh store (`store_`) on the directory, capturing its
  /// diagnostics.
  CheckpointScan load_fresh(std::uint64_t digest, std::string* diag) {
    store_.emplace(dir_, digest);
    testing::internal::CaptureStderr();
    const CheckpointScan scan = store_->load();
    *diag = testing::internal::GetCapturedStderr();
    return scan;
  }

  fs::path dir_;
  std::optional<CheckpointStore> store_;
};

TEST_F(CheckpointStoreTest, PersistLoadRoundTripIncludingNulBytes) {
  const std::string payload("bit-\0exact\xFF payload", 18);
  {
    CheckpointStore store(dir_, 0xD1CE5);
    store.persist(3, payload);
    store.persist(7, "seven");
  }
  CheckpointStore store(dir_, 0xD1CE5);
  const CheckpointScan scan = store.load();
  EXPECT_EQ(scan.loaded, 2u);
  EXPECT_EQ(scan.discarded, 0u);
  EXPECT_EQ(store.restore(3), payload);
  EXPECT_EQ(store.restore(7), "seven");
  EXPECT_FALSE(store.restore(4).has_value());
  EXPECT_TRUE(store.has(7));
  EXPECT_EQ(store.size(), 2u);
}

TEST_F(CheckpointStoreTest, PersistLeavesNoTempFiles) {
  CheckpointStore store(dir_, 1);
  store.persist(0, "x");
  store.persist(1, "y");
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  // Both records went to the store's one segment.
  EXPECT_EQ(fs::file_size(segment()), 2 * (kHeaderBytes + 1));
}

TEST_F(CheckpointStoreTest, ConcurrentStoresOnSameDirNeverTearFiles) {
  // Two identically-configured campaigns can race on the same digest-keyed
  // directory. Each store appends to its own O_EXCL segment, so neither can
  // interleave bytes into the other's records: every record that lands
  // must validate (magic + CRCs) and hold one writer's payload intact.
  const std::string a(64 * 1024, 'a');
  const std::string b(64 * 1024, 'b');
  {
    CheckpointStore first(dir_, 0xD16);
    CheckpointStore second(dir_, 0xD16);
    std::thread ta([&] {
      for (int i = 0; i < 20; ++i) first.persist(1, a);
    });
    std::thread tb([&] {
      for (int i = 0; i < 20; ++i) second.persist(1, b);
    });
    ta.join();
    tb.join();
    EXPECT_EQ(segments().size(), 2u);
  }

  CheckpointStore reader(dir_, 0xD16);
  const CheckpointScan scan = reader.load();
  EXPECT_EQ(scan.discarded, 0u) << "a torn or orphaned record survived";
  ASSERT_EQ(scan.loaded, 1u);
  const std::optional<std::string> got = reader.restore(1);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got == a || *got == b) << "interleaved payloads";
}

TEST_F(CheckpointStoreTest, ConcurrentPersistsAllReloadIntact) {
  // 8 threads append in turn and sync concurrently. Every unit must come
  // back intact from a fresh store.
  constexpr int kThreads = 8;
  constexpr int kUnitsPerThread = 40;
  const auto payload = [](std::uint64_t unit) {
    return std::string(1 + unit % 97, static_cast<char>('a' + unit % 26)) +
           std::to_string(unit);
  };
  {
    CheckpointStore store(dir_, 0x6C0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kUnitsPerThread; ++i) {
          const auto unit = static_cast<std::uint64_t>(i * kThreads + t);
          store.persist(unit, payload(unit));
        }
      });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(store.size(), std::size_t{kThreads * kUnitsPerThread});
  }
  CheckpointStore reread(dir_, 0x6C0);
  const CheckpointScan scan = reread.load();
  EXPECT_EQ(scan.discarded, 0u);
  ASSERT_EQ(scan.loaded, std::size_t{kThreads * kUnitsPerThread});
  for (std::uint64_t unit = 0; unit < scan.loaded; ++unit) {
    EXPECT_EQ(reread.restore(unit), payload(unit)) << "unit " << unit;
  }
}

TEST_F(CheckpointStoreTest, ClearRemovesUnitFiles) {
  {
    CheckpointStore store(dir_, 1);
    store.persist(0, "x");
    store.persist(1, "y");
    write_file(dir_ / "unit-000002.ckpt", "version 1");
    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_TRUE(fs::is_empty(dir_));
    store.persist(3, "after clear");  // opens a new segment
  }
  CheckpointStore fresh(dir_, 1);
  EXPECT_EQ(fresh.load().loaded, 1u);
  EXPECT_EQ(fresh.restore(3), "after clear");
}

TEST_F(CheckpointStoreTest, LoadAndClearLeaveALiveStoresSegmentAlone) {
  // Two runs resuming on one directory: the second one's load() must not
  // compact away, nor its clear() remove, the segment the first one still
  // appends to, or the first one's later records would land in an
  // unlinked file that no resume can read.
  std::optional<CheckpointStore> live(std::in_place, dir_, 0x11E);
  live->persist(0, "before");
  const fs::path live_segment = segment();
  {
    CheckpointStore finished(dir_, 0x11E);
    finished.persist(5, "finished");
  }
  write_file(dir_ / "unit-000009.ckpt", "version 1");  // forces a compaction
  std::string diag;
  const CheckpointScan scan = load_fresh(0x11E, &diag);
  EXPECT_EQ(scan.loaded, 1u) << "a live segment was read";
  EXPECT_EQ(scan.discarded, 1u);
  EXPECT_TRUE(fs::exists(live_segment));
  store_->clear();
  EXPECT_TRUE(fs::exists(live_segment));
  EXPECT_EQ(segments().size(), 1u);

  live->persist(1, "after");
  live.reset();
  CheckpointStore reread(dir_, 0x11E);
  EXPECT_EQ(reread.load().loaded, 2u);
  EXPECT_EQ(reread.restore(0), "before");
  EXPECT_EQ(reread.restore(1), "after");
}

// Each corruption case must degrade to "discard + re-run", never to a
// crash or a silently wrong payload: the scan reports one discard, the
// damage is gone from disk, and a subsequent persist works normally.
TEST_F(CheckpointStoreTest, TruncatedFileIsDiscarded) {
  {
    CheckpointStore store(dir_, 9);
    store.persist(0, "some payload bytes");
  }
  const fs::path seg = segment();
  const std::string bytes = read_file(seg);
  write_file(seg, bytes.substr(0, bytes.size() - 5));

  std::string diag;
  const CheckpointScan scan = load_fresh(9, &diag);
  EXPECT_EQ(scan.loaded, 0u);
  EXPECT_EQ(scan.discarded, 1u);
  EXPECT_NE(diag.find("torn tail"), std::string::npos) << diag;
  EXPECT_NE(diag.find("re-run"), std::string::npos) << diag;
  EXPECT_FALSE(fs::exists(seg));
  store_->persist(0, "fresh");  // clean re-run persists over the wreckage
  EXPECT_EQ(store_->restore(0), "fresh");
}

TEST_F(CheckpointStoreTest, TornTailKeepsEveryWholeRecord) {
  {
    CheckpointStore store(dir_, 9);
    store.persist(0, "zero");
    store.persist(1, "one");
    store.persist(2, "two-two");
  }
  const fs::path seg = segment();
  const std::string bytes = read_file(seg);
  const std::size_t last = 2 * kHeaderBytes + 4 + 3;  // where unit 2 starts
  for (std::size_t cut = last + 1; cut < bytes.size(); cut += 5) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write_file(seg, bytes.substr(0, cut));
    std::string diag;
    const CheckpointScan scan = load_fresh(9, &diag);
    EXPECT_EQ(scan.loaded, 2u) << "cut at " << cut;
    EXPECT_EQ(scan.discarded, 1u) << "cut at " << cut;
    EXPECT_NE(diag.find("at byte " + std::to_string(last) + " (torn tail)"),
              std::string::npos)
        << diag;
    EXPECT_EQ(store_->restore(0), "zero");
    EXPECT_EQ(store_->restore(1), "one");
    EXPECT_FALSE(store_->has(2));
  }
}

TEST_F(CheckpointStoreTest, PayloadCrcMismatchIsDiscarded) {
  {
    CheckpointStore store(dir_, 9);
    store.persist(0, "some payload bytes");
  }
  const fs::path seg = segment();
  std::string bytes = read_file(seg);
  bytes[bytes.size() - 1] ^= 0x01;  // flip one payload bit
  write_file(seg, bytes);

  std::string diag;
  const CheckpointScan scan = load_fresh(9, &diag);
  EXPECT_EQ(scan.discarded, 1u);
  EXPECT_NE(diag.find("CRC mismatch"), std::string::npos) << diag;
  EXPECT_FALSE(fs::exists(seg));
}

TEST_F(CheckpointStoreTest, HeaderDamageLosesOnlyThatRecord) {
  {
    CheckpointStore store(dir_, 9);
    store.persist(0, "zero");
    store.persist(1, "one");
    store.persist(2, "two");
  }
  const fs::path seg = segment();
  const std::string bytes = read_file(seg);
  const std::size_t second = kHeaderBytes + 4;  // where unit 1 starts
  // The magic, the unit field and the length field: each damage loses
  // unit 1 alone, and the scan resyncs at unit 2's header.
  for (const std::size_t offset : {std::size_t{0}, std::size_t{16},
                                   std::size_t{27}, std::size_t{38}}) {
    std::string damaged = bytes;
    damaged[second + offset] ^= 0x40;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    write_file(seg, damaged);
    std::string diag;
    const CheckpointScan scan = load_fresh(9, &diag);
    EXPECT_EQ(scan.loaded, 2u) << "offset " << offset;
    EXPECT_EQ(scan.discarded, 1u) << "offset " << offset;
    EXPECT_NE(diag.find(offset == 0 ? "bad magic" : "header CRC mismatch"),
              std::string::npos)
        << diag;
    EXPECT_EQ(store_->restore(0), "zero");
    EXPECT_FALSE(store_->has(1));
    EXPECT_EQ(store_->restore(2), "two");
  }
}

TEST_F(CheckpointStoreTest, FormatVersionSkewIsDiscarded) {
  {
    CheckpointStore store(dir_, 9);
    store.persist(0, "payload");
  }
  const fs::path seg = segment();
  std::string bytes = read_file(seg);
  bytes[4] = static_cast<char>(CheckpointStore::kFormatVersion + 1);
  write_file(seg, bytes);

  std::string diag;
  const CheckpointScan scan = load_fresh(9, &diag);
  EXPECT_EQ(scan.discarded, 1u);
  EXPECT_NE(diag.find("format version skew"), std::string::npos) << diag;
}

TEST_F(CheckpointStoreTest, VersionOneUnitFileIsDiscardedAsSkew) {
  // A unit file as format version 1 wrote it: the same header without the
  // header CRC, one file per unit.
  ByteWriter w;
  w.u32(0x4B434741u).u32(1).u64(9).u64(3).u64(7).u32(crc32("payload"));
  fs::create_directories(dir_);
  write_file(dir_ / "unit-000003.ckpt", w.take() + "payload");

  std::string diag;
  const CheckpointScan scan = load_fresh(9, &diag);
  EXPECT_EQ(scan.loaded, 0u);
  EXPECT_EQ(scan.discarded, 1u);
  EXPECT_NE(diag.find("unit-000003.ckpt at byte 0 (format version skew)"),
            std::string::npos)
      << diag;
  EXPECT_FALSE(store_->has(3));  // the unit re-runs
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(CheckpointStoreTest, ConfigDigestMismatchIsDiscarded) {
  {
    CheckpointStore store(dir_, 0xAAAA);
    store.persist(0, "payload");
  }
  std::string diag;
  // A different campaign configuration.
  const CheckpointScan scan = load_fresh(0xBBBB, &diag);
  EXPECT_EQ(scan.loaded, 0u);
  EXPECT_EQ(scan.discarded, 1u);
  EXPECT_NE(diag.find("config digest mismatch"), std::string::npos) << diag;
}

TEST_F(CheckpointStoreTest, BadMagicIsDiscardedAndForeignFilesKept) {
  CheckpointStore(dir_, 9).persist(0, "payload");
  write_file(dir_ / "seg-1-0.log",
             "not a checkpoint at all, though as long as a record header");
  write_file(dir_ / "notes.txt", "operator notes survive");
  write_file(dir_ / "seg-1-1.log.tmp", "interrupted compaction");

  std::string diag;
  const CheckpointScan scan = load_fresh(9, &diag);
  EXPECT_EQ(scan.loaded, 1u);
  EXPECT_EQ(scan.discarded, 2u);  // bad magic + orphaned .tmp
  EXPECT_NE(diag.find("bad magic"), std::string::npos) << diag;
  EXPECT_TRUE(fs::exists(dir_ / "notes.txt"));
  EXPECT_FALSE(fs::exists(dir_ / "seg-1-0.log"));
  EXPECT_FALSE(fs::exists(dir_ / "seg-1-1.log.tmp"));
}

TEST_F(CheckpointStoreTest, CompactionLeavesOneSegmentAndDiagnosesOnce) {
  {
    CheckpointStore first(dir_, 9);
    CheckpointStore second(dir_, 9);
    first.persist(0, "zero");
    first.persist(1, "one");
    second.persist(2, "two");
    second.persist(0, "zero again");
  }
  ASSERT_EQ(segments().size(), 2u);
  // Damage unit 1's payload in whichever segment holds it.
  for (const fs::path& seg : segments()) {
    std::string bytes = read_file(seg);
    if (bytes.find("one") == std::string::npos) continue;
    bytes[bytes.find("one")] ^= 0x01;
    write_file(seg, bytes);
  }

  std::string diag;
  CheckpointScan scan = load_fresh(9, &diag);
  EXPECT_EQ(scan.loaded, 2u);
  EXPECT_EQ(scan.discarded, 1u);
  EXPECT_EQ(std::count(diag.begin(), diag.end(), '\n'), 1) << diag;
  EXPECT_EQ(segments().size(), 1u);
  EXPECT_TRUE(store_->restore(0) == "zero" || store_->restore(0) == "zero again");
  EXPECT_EQ(store_->restore(2), "two");

  // The survivors reload from the one segment with nothing to report.
  const std::string compacted = read_file(segments().front());
  scan = load_fresh(9, &diag);
  EXPECT_EQ(scan.loaded, 2u);
  EXPECT_EQ(scan.discarded, 0u);
  EXPECT_EQ(diag, "");
  EXPECT_EQ(segments().size(), 1u);
  EXPECT_EQ(read_file(segments().front()), compacted);
}

TEST_F(CheckpointStoreTest, UnusableDirectoryThrowsPermanent) {
  write_file(dir_.parent_path() / "agingsim_ckpt_file_in_the_way", "x");
  const fs::path blocked =
      dir_.parent_path() / "agingsim_ckpt_file_in_the_way" / "sub";
  try {
    CheckpointStore store(blocked, 1);
    FAIL() << "directory creation through a file must throw";
  } catch (const RunError& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kPermanent);
  }
  fs::remove(dir_.parent_path() / "agingsim_ckpt_file_in_the_way");
}

}  // namespace
}  // namespace agingsim::runtime
