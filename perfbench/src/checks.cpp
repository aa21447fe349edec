#include "checks.hpp"

#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

void CheckLog::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "check failed: " << what << "\n";
}

void CheckLog::operations(std::size_t n, std::size_t failed,
                          const std::string& what) {
  attempted_ += n;
  if (failed == 0) return;
  failed_ += failed;
  std::cerr << "operations failed: " << failed << " of " << n << " " << what
            << "\n";
}

void CheckLog::same_as_first(const std::string& key,
                             const std::string& actual) {
  for (const auto& [k, first] : firsts_) {
    if (k == key) {
      expect(actual == first, key + " differs from its first repetition");
      return;
    }
  }
  firsts_.emplace_back(key, actual);
}

void CheckLog::matches_file(const std::string& path,
                            const std::string& actual) {
  bool ok = false;
  const std::string expected = read_file(path, ok);
  expect(ok, "cannot read " + path);
  if (ok) expect(actual == expected, "output differs from " + path);
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = in.good();
  std::ostringstream text;
  if (ok) text << in.rdbuf();
  return text.str();
}

}  // namespace perfbench
