#include "util/stats.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tomo {

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double variance(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double sum = 0.0;
  for (double v : values) sum += (v - m) * (v - m);
  return sum / static_cast<double>(values.size() - 1);
}

namespace {

/// Shared interpolation tail of percentile()/percentile_pair(): `values`
/// must already be sorted.
double sorted_percentile(const std::vector<double>& values, double p) {
  TOMO_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0,100]");
  if (values.size() == 1) return values[0];
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  TOMO_REQUIRE(!values.empty(), "percentile of an empty sample");
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, p);
}

Interval percentile_pair(std::vector<double> values, double p_lo,
                         double p_hi) {
  TOMO_REQUIRE(!values.empty(), "percentile of an empty sample");
  std::sort(values.begin(), values.end());
  return {sorted_percentile(values, p_lo), sorted_percentile(values, p_hi)};
}

}  // namespace tomo
