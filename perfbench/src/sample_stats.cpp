#include "sample_stats.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = p / 100.0 * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (rank - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
}

double median(std::vector<double> sample) {
  return percentile(std::move(sample), 50.0);
}

Tail tail(const std::vector<double>& sample) {
  Tail t;
  t.n = sample.size();
  t.pct = 50.0;
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    // The epsilon absorbs 100 − 99.9 not being exact in binary.
    if (static_cast<double>(t.n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) {
      t.pct = p;
      break;
    }
  }
  t.value = percentile(sample, t.pct);
  return t;
}

}  // namespace perfbench
