#include "metrics/error_metrics.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tomo::metrics {

std::vector<double> absolute_errors(const std::vector<double>& truth,
                                    const std::vector<double>& estimate,
                                    const std::vector<std::size_t>& subset) {
  TOMO_REQUIRE(truth.size() == estimate.size(),
               "absolute_errors: vector size mismatch");
  std::vector<double> out;
  if (subset.empty()) {
    out.reserve(truth.size());
    for (std::size_t k = 0; k < truth.size(); ++k) {
      out.push_back(std::abs(truth[k] - estimate[k]));
    }
  } else {
    out.reserve(subset.size());
    for (std::size_t k : subset) {
      TOMO_REQUIRE(k < truth.size(), "absolute_errors: index out of range");
      out.push_back(std::abs(truth[k] - estimate[k]));
    }
  }
  return out;
}

}  // namespace tomo::metrics
