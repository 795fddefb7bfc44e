#include "src/runtime/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
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
/// read_unit_file returns (plus "tmp file" for interrupted writes).
void count_discard(const char* why) {
  if (!obs::metrics_enabled()) return;
  static const struct {
    const char* why;
    const obs::Counter& counter;
  } kReasons[] = {
      {"tmp file", obs::counter("checkpoint.discarded_tmp")},
      {"unreadable", obs::counter("checkpoint.discarded_unreadable")},
      {"truncated header", obs::counter("checkpoint.discarded_truncated")},
      {"bad magic", obs::counter("checkpoint.discarded_magic")},
      {"format version skew", obs::counter("checkpoint.discarded_version")},
      {"config digest mismatch",
       obs::counter("checkpoint.discarded_digest")},
      {"truncated payload", obs::counter("checkpoint.discarded_truncated")},
      {"payload CRC mismatch", obs::counter("checkpoint.discarded_crc")},
      {"unit mismatch", obs::counter("checkpoint.discarded_unit")},
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
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8 + 4;

std::string header_bytes(std::uint64_t digest, std::uint64_t unit,
                         std::string_view payload) {
  ByteWriter w;
  w.u32(kMagic)
      .u32(CheckpointStore::kFormatVersion)
      .u64(digest)
      .u64(unit)
      .u64(payload.size())
      .u32(crc32(payload));
  return w.take();
}

CheckpointWriteHook g_write_hook = nullptr;

/// Which syscall of the durable-write sequence failed, and its errno —
/// surfaced verbatim in the RunError so "disk full" reads as disk full,
/// not as a generic cannot-write.
struct WriteFailure {
  const char* step = "";
  int err = 0;
};

/// POSIX durable write: payload to fd, fsync, close. Returns false on any
/// failure (the caller treats the file as unwritable) and fills `failure`.
/// Short writes are continued (a signal landing mid-write(2) legally
/// returns a partial count) and EINTR is retried; only a real error — or
/// an error surfacing at fsync/close, where delayed-allocation filesystems
/// first report ENOSPC — fails the write.
bool write_durable(const std::filesystem::path& path, std::string_view header,
                   std::string_view payload, WriteFailure& failure) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    failure = {"open", errno};
    return false;
  }
  bool ok = true;
  const auto write_all = [&](std::string_view bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          g_write_hook != nullptr
              ? g_write_hook(fd, bytes.data() + done, bytes.size() - done)
              : ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        failure = {"write", errno};
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  };
  ok = write_all(header) && write_all(payload);
  if (ok && ::fsync(fd) != 0) {
    failure = {"fsync", errno};
    ok = false;
  }
  if (::close(fd) != 0 && ok) {
    failure = {"close", errno};
    ok = false;
  }
  return ok;
}

/// Best-effort fsync of the directory so the rename itself is durable.
void sync_dir(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

void diagnose(const std::filesystem::path& file, const char* why) {
  std::fprintf(stderr,
               "checkpoint: discarding %s (%s); the unit will be re-run\n",
               file.string().c_str(), why);
}

/// Validates one checkpoint file. On success fills unit/payload and returns
/// nullptr; otherwise returns a static reason string.
const char* read_unit_file(const std::filesystem::path& file,
                           std::uint64_t expected_digest, std::uint64_t& unit,
                           std::string& payload) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return "unreadable";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  if (bytes.size() < kHeaderBytes) return "truncated header";

  ByteReader r(bytes);
  try {
    if (r.u32() != kMagic) return "bad magic";
    if (r.u32() != CheckpointStore::kFormatVersion) {
      return "format version skew";
    }
    if (r.u64() != expected_digest) return "config digest mismatch";
    unit = r.u64();
    const std::uint64_t len = r.u64();
    const std::uint32_t crc = r.u32();
    if (r.remaining() != len) return "truncated payload";
    payload = bytes.substr(kHeaderBytes);
    if (crc32(payload) != crc) return "payload CRC mismatch";
  } catch (const RunError&) {
    return "truncated header";
  }
  return nullptr;
}

}  // namespace

void set_checkpoint_write_hook_for_testing(CheckpointWriteHook hook) {
  g_write_hook = hook;
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

std::filesystem::path CheckpointStore::unit_path(std::uint64_t unit) const {
  char name[32];
  std::snprintf(name, sizeof name, "unit-%06llu.ckpt",
                static_cast<unsigned long long>(unit));
  return dir_ / name;
}

CheckpointScan CheckpointStore::load() {
  obs::TraceSpan span("checkpoint.load");
  std::lock_guard lk(mutex_);
  CheckpointScan scan;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::filesystem::path& file = entry.path();
    if (file.extension() == ".tmp") {
      // A write the crash interrupted before the rename; never valid.
      std::filesystem::remove(file, ec);
      ++scan.discarded;
      count_discard("tmp file");
      continue;
    }
    if (file.extension() != ".ckpt") continue;  // foreign file: leave alone
    std::uint64_t unit = 0;
    std::string payload;
    const char* why = read_unit_file(file, digest_, unit, payload);
    // The CRC covers only the payload: a damaged unit field must not
    // restore this file as another unit.
    if (why == nullptr && file.filename() != unit_path(unit).filename()) {
      why = "unit mismatch";
    }
    if (why != nullptr) {
      diagnose(file, why);
      std::filesystem::remove(file, ec);
      ++scan.discarded;
      count_discard(why);
      continue;
    }
    units_[unit] = std::move(payload);
    ++scan.loaded;
  }
  checkpoint_metrics().loaded.add(scan.loaded);
  return scan;
}

void CheckpointStore::clear() {
  std::lock_guard lk(mutex_);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::filesystem::path& file = entry.path();
    if (file.extension() == ".ckpt" || file.extension() == ".tmp") {
      std::filesystem::remove(file, ec);
    }
  }
  units_.clear();
}

void CheckpointStore::persist(std::uint64_t unit, std::string_view payload) {
  obs::TraceSpan span("checkpoint.persist", unit);
  const std::filesystem::path final_path = unit_path(unit);
  // The tmp name is unique per process and per writer: two stores pointed
  // at the same directory (e.g. concurrent identically-configured
  // campaigns) must not O_TRUNC each other's in-progress file, or a torn
  // write could be renamed into place as a valid-looking .ckpt. Keeps the
  // ".tmp" extension so load() still sweeps up orphans after a crash.
  static std::atomic<std::uint64_t> tmp_seq{0};
  std::filesystem::path tmp_path = final_path;
  tmp_path += "." + std::to_string(::getpid()) + "-" +
              std::to_string(tmp_seq.fetch_add(1, std::memory_order_relaxed)) +
              ".tmp";

  const std::string header = header_bytes(digest_, unit, payload);
  WriteFailure failure;
  if (!write_durable(tmp_path, header, payload, failure)) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    // Permanent on purpose: retrying a full disk burns the retry budget
    // without helping. The .tmp was removed above, so no torn file is
    // visible; completed .ckpt units stay valid for --resume.
    const std::string detail =
        failure.err == ENOSPC
            ? std::string("disk full (ENOSPC at ") + failure.step + ")"
            : std::string(failure.step) + " failed: " +
                  std::strerror(failure.err);
    throw RunError(ErrorCategory::kPermanent,
                   "CheckpointStore: cannot write " + tmp_path.string() +
                       " (" + detail +
                       "); completed checkpoints remain valid — free space "
                       "and rerun with --resume");
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    throw RunError(ErrorCategory::kPermanent,
                   "CheckpointStore: cannot rename into " +
                       final_path.string());
  }
  sync_dir(dir_);
  checkpoint_metrics().persisted.add();

  std::lock_guard lk(mutex_);
  units_[unit] = std::string(payload);
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
