// Small statistics helpers shared by estimators, metrics, and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace tomo {

/// Arithmetic mean; 0 for an empty input.
double mean(const std::vector<double>& values);

/// Unbiased sample variance; 0 for fewer than two values.
double variance(const std::vector<double>& values);

/// p-th percentile (p in [0,100]) by linear interpolation between order
/// statistics. Throws tomo::Error on empty input.
double percentile(std::vector<double> values, double p);

/// A {lo, hi} pair of sample statistics.
struct Interval {
  double lo;
  double hi;
};

/// Both tails of one sample with a single sort: {percentile(v, p_lo),
/// percentile(v, p_hi)}, bit-identical to the two separate calls. The
/// bootstrap-interval hot path calls this once per link instead of paying
/// the copy+sort twice.
Interval percentile_pair(std::vector<double> values, double p_lo,
                         double p_hi);

}  // namespace tomo
