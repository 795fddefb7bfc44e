#pragma once

// Scratch paths for tests that write files. Every name carries the test
// process's pid, so two test runs on one machine (a Release and a
// sanitizer ctest at once, say) never remove each other's checkpoint
// directories or sockets. Names stay short: a socket inside one must fit
// sun_path.

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace agingsim {

/// `<temp dir>/agingsim_<tag>_<pid>`; nothing is created.
inline std::filesystem::path temp_path(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("agingsim_" + tag + "_" + std::to_string(::getpid()));
}

/// An empty directory at temp_path(tag), removed with the object.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) : path_(temp_path(tag)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace agingsim
