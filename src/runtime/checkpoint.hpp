#pragma once

// Crash-safe checkpoint store for long campaigns (docs/ROBUSTNESS.md).
//
// Each completed work unit (a fault trial, a sweep point, a seven-year
// row) is appended as one record to a segment file that belongs to this
// store alone: `seg-<pid>-<seq>.log`, created with O_EXCL and locked while
// open, so two stores sharing a directory never write, compact or clear
// each other's file. persist() returns only once an fdatasync covers its
// record, so a SIGKILL at any instant loses at most the in-flight units.
// Every record carries a magic, a format version, the campaign
// configuration digest, a CRC-32 of its unit and length fields and a
// CRC-32 of its payload. load() discards (with a one-line stderr
// diagnostic) every damaged, stale or foreign-configuration record, which
// degrades to a clean re-run of those units — never a crash, never a
// silently wrong result.

#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace agingsim::runtime {

/// Test-only fault injection: when set, persist() routes every write(2) and
/// fdatasync(2) through these hooks (same contracts, errno included), so
/// tests can fail a write or a sync without a failing disk. Not thread-safe
/// against concurrent persist() — install before the run, clear after.
using CheckpointWriteHook = long (*)(int fd, const void* buf,
                                     std::size_t count);
using CheckpointSyncHook = int (*)(int fd);
void set_checkpoint_write_hook_for_testing(CheckpointWriteHook hook);
void set_checkpoint_sync_hook_for_testing(CheckpointSyncHook hook);

/// What load() found on disk.
struct CheckpointScan {
  std::size_t loaded = 0;     ///< distinct units restored into memory
  std::size_t discarded = 0;  ///< damaged regions, stale records and files
};

class CheckpointStore {
 public:
  /// Bumped whenever the on-disk layout changes; older records are
  /// discarded. Version 1 was one `unit-N.ckpt` file per unit.
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Creates `dir` (and parents) if needed. `config_digest` fingerprints
  /// the campaign configuration (see Digest); units written under any
  /// other digest are rejected at load(). Throws RunError(kPermanent) when
  /// the directory cannot be created or is not writable.
  CheckpointStore(std::filesystem::path dir, std::uint64_t config_digest);
  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Scans every segment that no live store holds and loads every valid
  /// record (within a segment the later record of a unit wins; across
  /// segments one digest means one payload). Damaged or stale regions are
  /// skipped with a stderr diagnostic. When the scan found more than one
  /// segment or discarded anything, the survivors are rewritten into one
  /// segment (tmp, fsync, rename, directory fsync) and the inputs deleted,
  /// so each diagnostic prints once. Call once before run().
  CheckpointScan load();

  /// Removes every checkpoint file no live store holds (fresh-run
  /// semantics, the opposite of --resume) and forgets loaded payloads.
  void clear();

  /// Durably persists one completed unit: appends its record and returns
  /// once an fdatasync covers it. Thread-safe; concurrent callers append in
  /// turn and sync at once, and a later record for the same unit supersedes
  /// the earlier one. Throws RunError(kPermanent) when the append or the
  /// sync fails; after a failed sync every later call throws too.
  void persist(std::uint64_t unit, std::string_view payload);

  bool has(std::uint64_t unit) const;
  /// Payload of a loaded/persisted unit, or nullopt. Copies out so callers
  /// never hold references into the store across persist() calls.
  std::optional<std::string> restore(std::uint64_t unit) const;

  std::size_t size() const;
  const std::filesystem::path& dir() const noexcept { return dir_; }
  std::uint64_t config_digest() const noexcept { return digest_; }

 private:
  void close_segment();

  mutable std::mutex mutex_;
  std::filesystem::path dir_;
  std::uint64_t digest_;
  std::map<std::uint64_t, std::string> units_;
  // This store's segment, opened on the first persist().
  int fd_ = -1;
  std::filesystem::path segment_;
  std::uint64_t bytes_ = 0;  ///< length of the whole records appended
  std::string failure_;      ///< why the segment is unusable, once it is
};

}  // namespace agingsim::runtime
