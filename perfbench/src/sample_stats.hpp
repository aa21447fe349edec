#pragma once
/// \file sample_stats.hpp
/// Order statistics for benchmark samples: medians for the reported
/// values, and the tail rule — report the highest percentile that still
/// has at least ten samples beyond it, together with the sample count, so
/// a "p99" is never read off a hundred samples.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Linearly interpolated percentile (p in [0, 100]) of an unsorted
/// sample; 0 for an empty one.
double percentile(std::vector<double> sample, double p);

double median(std::vector<double> sample);

/// A tail percentile chosen by the ten-beyond rule.
struct Tail {
  double value = 0.0;
  double pct = 0.0;     ///< which percentile `value` is
  std::size_t n = 0;    ///< sample count
};

/// Candidate percentiles, highest first: 99.9, 99, 95, 90, 75, 50. The
/// highest p with n·(1 − p/100) ≥ 10 wins; with fewer than 20 samples
/// no candidate qualifies and the median is returned (pct = 50).
Tail tail(const std::vector<double>& sample);

}  // namespace perfbench
