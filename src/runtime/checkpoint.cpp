#include "src/runtime/checkpoint.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <system_error>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/serial.hpp"

namespace agingsim::runtime {
namespace {

struct CheckpointMetrics {
  const obs::Counter& persisted = obs::counter("checkpoint.persisted");
  const obs::Counter& loaded = obs::counter("checkpoint.loaded");
  const obs::Counter& discarded = obs::counter("checkpoint.discarded");
};

const CheckpointMetrics& checkpoint_metrics() {
  static const CheckpointMetrics m;
  return m;
}

/// One counter per discard reason, so a resume that silently re-runs work
/// still says *why* in the metrics snapshot. Reasons map to the strings
/// load() reports (plus "tmp file" for interrupted compactions).
void count_discard(const char* why) {
  if (!obs::metrics_enabled()) return;
  static const struct {
    const char* why;
    const obs::Counter& counter;
  } kReasons[] = {
      {"tmp file", obs::counter("checkpoint.discarded_tmp")},
      {"unreadable", obs::counter("checkpoint.discarded_unreadable")},
      {"torn tail", obs::counter("checkpoint.discarded_torn")},
      {"bad magic", obs::counter("checkpoint.discarded_magic")},
      {"header CRC mismatch", obs::counter("checkpoint.discarded_header")},
      {"format version skew", obs::counter("checkpoint.discarded_version")},
      {"config digest mismatch",
       obs::counter("checkpoint.discarded_digest")},
      {"payload CRC mismatch", obs::counter("checkpoint.discarded_crc")},
  };
  checkpoint_metrics().discarded.add();
  for (const auto& reason : kReasons) {
    if (std::strcmp(reason.why, why) == 0) {
      reason.counter.add();
      return;
    }
  }
}

constexpr std::uint32_t kMagic = 0x4B434741u;  // "AGCK" little-endian
constexpr std::string_view kMagicBytes = "AGCK";
// magic, version, digest, unit, length, payload CRC, header CRC.
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4 + 4;

/// CRC-32 of the unit and length fields: a damaged length must not
/// misframe the records after it, nor a damaged unit restore another one.
std::uint32_t header_crc(std::string_view header) {
  return crc32(header.substr(16, 16));
}

std::string record_bytes(std::uint64_t digest, std::uint64_t unit,
                         std::string_view payload) {
  ByteWriter w;
  w.u32(kMagic)
      .u32(CheckpointStore::kFormatVersion)
      .u64(digest)
      .u64(unit)
      .u64(payload.size())
      .u32(crc32(payload));
  w.u32(header_crc(w.data()));
  std::string bytes = w.take();
  bytes.append(payload);
  return bytes;
}

/// A whole header with the magic and a matching header CRC starts `rest`.
bool header_verifies(std::string_view rest) {
  if (rest.size() < kHeaderBytes || !rest.starts_with(kMagicBytes)) {
    return false;
  }
  return ByteReader(rest.substr(36, 4)).u32() == header_crc(rest);
}

CheckpointWriteHook g_write_hook = nullptr;
CheckpointSyncHook g_sync_hook = nullptr;

/// The failing step and its errno as the RunError states them, so "disk
/// full" reads as disk full, not as a generic cannot-write.
std::string describe(const char* step, int err) {
  return err == ENOSPC ? std::string("disk full (ENOSPC at ") + step + ")"
                       : std::string(step) + " failed: " + std::strerror(err);
}

[[noreturn]] void fail(const std::filesystem::path& file,
                       const std::string& detail) {
  // Permanent on purpose: retrying a full disk burns the retry budget
  // without helping.
  throw RunError(ErrorCategory::kPermanent,
                 "CheckpointStore: cannot write " + file.string() + " (" +
                     detail +
                     "); completed checkpoints remain valid — free space "
                     "and rerun with --resume");
}

/// Writes all of `bytes`; returns 0 or the errno of the failure. Short
/// writes are continued (a signal landing mid-write(2) legally returns a
/// partial count) and EINTR is retried.
int write_all(int fd, std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        g_write_hook != nullptr
            ? g_write_hook(fd, bytes.data() + done, bytes.size() - done)
            : ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    done += static_cast<std::size_t>(n);
  }
  return 0;
}

/// Best-effort fsync of the directory so a created or renamed name is
/// durable.
void sync_dir(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// Closes a descriptor, and so releases its flock, when it goes out of scope.
struct OwnedFd {
  int fd;
  explicit OwnedFd(int owned) : fd(owned) {}
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  ~OwnedFd() {
    if (fd >= 0) ::close(fd);
  }
};

/// Takes `fd`'s flock without blocking. False when another open file holds
/// it (a live store's segment) or a load() unlinked the file before the
/// lock was taken. A file system without flock leaves files unlocked.
bool lock_linked(int fd) {
  struct stat st {};
  const bool held = ::flock(fd, LOCK_EX | LOCK_NB) != 0 && errno == EWOULDBLOCK;
  return !held && ::fstat(fd, &st) == 0 && st.st_nlink > 0;
}

/// Opens `file` and holds its lock in `held`. False when load() and clear()
/// must leave the file alone: a live store holds it, or a concurrent load()
/// consumed it. A version 1 unit file has no writer left to protect.
bool take(const std::filesystem::path& file, std::deque<OwnedFd>& held) {
  if (file.extension() == ".ckpt") return true;
  const int fd = ::open(file.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return errno != ENOENT;
  held.emplace_back(fd);
  return lock_linked(fd);
}

/// Creates a segment no store has used, with O_EXCL, and locks it for as
/// long as it is open. `suffix` ".tmp" makes a compaction target whose
/// final name (without it) is free too.
int create_segment(const std::filesystem::path& dir, const char* suffix,
                   std::filesystem::path& path) {
  static std::atomic<std::uint64_t> seq{0};
  for (;;) {
    const std::filesystem::path name =
        dir / ("seg-" + std::to_string(::getpid()) + "-" +
               std::to_string(seq.fetch_add(1)) + ".log");
    path = name;
    path += suffix;
    if (path != name && std::filesystem::exists(name)) continue;
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
                          0644);
    if (fd < 0 && errno != EEXIST) return fd;
    if (fd >= 0 && lock_linked(fd)) return fd;
    if (fd >= 0) ::close(fd);
  }
}

/// A segment, a compaction's .tmp or a version 1 unit file; anything else
/// in the directory is foreign and left alone.
bool is_checkpoint_file(const std::filesystem::path& file) {
  const std::filesystem::path ext = file.extension();
  return ext == ".tmp" || ext == ".ckpt" ||
         (ext == ".log" && file.filename().string().starts_with("seg-"));
}

/// Parses one segment into `found` (a later record of a unit wins) and
/// hands each bad region to `discard(at, why)` once.
template <typename Discard>
void scan_segment(std::string_view bytes, std::uint64_t digest,
                  std::map<std::uint64_t, std::string>& found,
                  const Discard& discard) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::string_view rest = bytes.substr(at);
    if (!header_verifies(rest)) {
      // Resync at the next magic whose header verifies.
      std::size_t next = bytes.find(kMagicBytes, at + 1);
      while (next != std::string_view::npos &&
             !header_verifies(bytes.substr(next))) {
        next = bytes.find(kMagicBytes, next + 1);
      }
      discard(at, rest.size() < kHeaderBytes   ? "torn tail"
                  : !rest.starts_with(kMagicBytes) ? "bad magic"
                                                   : "header CRC mismatch");
      at = std::min(next, bytes.size());
      continue;
    }
    ByteReader r(rest);
    r.u32();
    const std::uint32_t version = r.u32();
    const std::uint64_t record_digest = r.u64();
    const std::uint64_t unit = r.u64();
    const std::uint64_t len = r.u64();
    const std::uint32_t crc = r.u32();
    if (len > rest.size() - kHeaderBytes) {
      discard(at, "torn tail");  // a write the crash cut short
      return;
    }
    const std::string_view payload = rest.substr(kHeaderBytes, len);
    const char* why = version != CheckpointStore::kFormatVersion
                          ? "format version skew"
                      : record_digest != digest ? "config digest mismatch"
                      : crc32(payload) != crc   ? "payload CRC mismatch"
                                                : nullptr;
    if (why != nullptr) {
      discard(at, why);
    } else {
      found[unit] = std::string(payload);
    }
    at += kHeaderBytes + len;
  }
}

/// Writes `units` into one new segment with the durable-rename
/// discipline: tmp, fsync, rename, directory fsync.
bool write_compacted(const std::filesystem::path& dir, std::uint64_t digest,
                     const std::map<std::uint64_t, std::string>& units) {
  std::string bytes;
  for (const auto& [unit, payload] : units) {
    bytes += record_bytes(digest, unit, payload);
  }
  std::filesystem::path tmp;
  const int fd = create_segment(dir, ".tmp", tmp);
  if (fd < 0) return false;
  bool ok = write_all(fd, bytes) == 0 && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  std::error_code ec;
  if (ok) {
    std::filesystem::rename(
        tmp, std::filesystem::path(tmp).replace_extension(), ec);
  }
  if (!ok || ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  sync_dir(dir);
  return true;
}

}  // namespace

void set_checkpoint_write_hook_for_testing(CheckpointWriteHook hook) {
  g_write_hook = hook;
}

void set_checkpoint_sync_hook_for_testing(CheckpointSyncHook hook) {
  g_sync_hook = hook;
}

CheckpointStore::CheckpointStore(std::filesystem::path dir,
                                 std::uint64_t config_digest)
    : dir_(std::move(dir)), digest_(config_digest) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw RunError(ErrorCategory::kPermanent,
                   "CheckpointStore: cannot create directory '" +
                       dir_.string() + "': " + ec.message());
  }
}

CheckpointStore::~CheckpointStore() { close_segment(); }

void CheckpointStore::close_segment() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  bytes_ = 0;
  failure_.clear();
}

CheckpointScan CheckpointStore::load() {
  obs::TraceSpan span("checkpoint.load");
  std::lock_guard lk(mutex_);
  CheckpointScan scan;
  std::error_code ec;
  std::vector<std::filesystem::path> files(
      std::filesystem::directory_iterator(dir_, ec), {});
  std::sort(files.begin(), files.end());

  std::map<std::uint64_t, std::string> found;
  std::vector<std::filesystem::path> inputs;  // every file load() consumed
  std::deque<OwnedFd> locks;  // held on the inputs until they are unlinked
  std::size_t segments = 0;
  for (const std::filesystem::path& file : files) {
    const auto discard = [&](std::size_t at, const char* why) {
      std::fprintf(stderr,
                   "checkpoint: discarding %s at byte %zu (%s); its units "
                   "will be re-run\n",
                   file.c_str(), at, why);
      ++scan.discarded;
      count_discard(why);
    };
    if (!is_checkpoint_file(file) || !take(file, locks)) continue;
    if (file.extension() == ".tmp") {
      // A compaction the crash interrupted before the rename; never valid.
      ++scan.discarded;
      count_discard("tmp file");
    } else if (file.extension() == ".ckpt") {
      discard(0, "format version skew");  // a version 1 unit file
    } else {
      ++segments;
      std::ifstream in(file, std::ios::binary);
      if (in) {
        scan_segment(std::string(std::istreambuf_iterator<char>(in), {}),
                     digest_, found, discard);
      } else {
        discard(0, "unreadable");
      }
    }
    inputs.push_back(file);
  }
  // A failed rewrite keeps the inputs: the next load() retries it.
  if ((segments > 1 || scan.discarded > 0) &&
      (found.empty() || write_compacted(dir_, digest_, found))) {
    for (const std::filesystem::path& file : inputs) {
      std::filesystem::remove(file, ec);
    }
    sync_dir(dir_);
  }
  scan.loaded = found.size();
  checkpoint_metrics().loaded.add(scan.loaded);
  units_.merge(found);
  return scan;
}

void CheckpointStore::clear() {
  std::lock_guard lk(mutex_);
  close_segment();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::deque<OwnedFd> lock;
    if (is_checkpoint_file(entry.path()) && take(entry.path(), lock)) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  units_.clear();
}

void CheckpointStore::persist(std::uint64_t unit, std::string_view payload) {
  obs::TraceSpan span("checkpoint.persist", unit);
  const std::string record = record_bytes(digest_, unit, payload);
  std::unique_lock lk(mutex_);
  if (!failure_.empty()) fail(segment_, failure_);
  if (fd_ < 0) {
    fd_ = create_segment(dir_, "", segment_);
    if (fd_ < 0) fail(segment_, describe("open", errno));
    sync_dir(dir_);  // the segment's name is durable before any record
  }
  // Each caller syncs through a descriptor of its own, opened before its
  // append: a writeback error is reported once per open file, so callers
  // sharing fd_ could not all learn that their record was lost.
  const OwnedFd sync(::open(segment_.c_str(), O_RDONLY | O_CLOEXEC));
  if (sync.fd < 0) fail(segment_, describe("open", errno));
  if (const int err = write_all(fd_, record); err != 0) {
    // Cut the torn record off, so the segment holds whole records only and
    // the next append starts where this one did.
    if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
      failure_ = describe("ftruncate", errno);
    }
    fail(segment_, describe("write", err));
  }
  bytes_ += record.size();
  lk.unlock();
  // Callers sync concurrently, leaving batching to the file system.
  int err = 0;
  {
    obs::TraceSpan sync_span("checkpoint.sync", unit);
    const int rc =
        g_sync_hook != nullptr ? g_sync_hook(sync.fd) : ::fdatasync(sync.fd);
    if (rc != 0) err = errno;
  }
  lk.lock();
  if (err != 0) {
    // The kernel may already have dropped the unsynced pages: no record
    // past the last good sync can be vouched for, so stop appending.
    failure_ = describe("fdatasync", err);
    fail(segment_, failure_);
  }
  units_[unit] = std::string(payload);
  checkpoint_metrics().persisted.add();
}

bool CheckpointStore::has(std::uint64_t unit) const {
  std::lock_guard lk(mutex_);
  return units_.contains(unit);
}

std::optional<std::string> CheckpointStore::restore(
    std::uint64_t unit) const {
  std::lock_guard lk(mutex_);
  const auto it = units_.find(unit);
  if (it == units_.end()) return std::nullopt;
  return it->second;
}

std::size_t CheckpointStore::size() const {
  std::lock_guard lk(mutex_);
  return units_.size();
}

}  // namespace agingsim::runtime
