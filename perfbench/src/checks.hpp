#pragma once
/// \file checks.hpp
/// Output checks and failure accounting. Every operation the benchmark
/// attempts and every output check it makes is counted; a failed one is
/// counted as failed and named on stderr, and any failure makes the run
/// exit non-zero.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class CheckLog {
 public:
  /// Count one attempted operation or check; a false `ok` also counts a
  /// failure described by `what`.
  void expect(bool ok, const std::string& what);

  /// Count `n` operations of which `failed` failed.
  void operations(std::size_t n, std::size_t failed, const std::string& what);

  /// Byte-compare `actual` against the first value seen under `key`
  /// (the first call stores it). Used for "identical across repetitions".
  void same_as_first(const std::string& key, const std::string& actual);

  /// Byte-compare `actual` against the file at `path`.
  void matches_file(const std::string& path, const std::string& actual);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::pair<std::string, std::string>> firsts_;
};

/// Whole file contents; `ok` is false when it cannot be opened.
std::string read_file(const std::string& path, bool& ok);

}  // namespace perfbench
