#pragma once

// The checkpoint store a SIGKILL leaves behind, built through the public
// API: a campaign killed mid-run has persisted only the units that
// finished, so the tests copy a finished store's first units into a fresh
// directory and resume from that.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "src/runtime/checkpoint.hpp"

namespace agingsim {

/// Persists units [0, kept) of the finished store in `finished` into a
/// fresh store in `killed`; returns how many it persisted.
inline std::size_t persist_kept_units(const std::filesystem::path& finished,
                                      const std::filesystem::path& killed,
                                      std::uint64_t digest,
                                      std::uint64_t kept) {
  runtime::CheckpointStore from(finished, digest);
  from.load();
  std::filesystem::remove_all(killed);
  runtime::CheckpointStore to(killed, digest);
  std::size_t persisted = 0;
  for (std::uint64_t unit = 0; unit < kept; ++unit) {
    if (const std::optional<std::string> payload = from.restore(unit)) {
      to.persist(unit, *payload);
      ++persisted;
    }
  }
  return persisted;
}

}  // namespace agingsim
