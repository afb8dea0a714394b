// Evaluation metrics (paper §5, "Metrics").
//
// All figures report the absolute error |p_true - p_estimated| of the
// per-link congestion probability, restricted to the *potentially
// congested* links: links that participate in at least one path observed
// congested during the experiment.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/coverage.hpp"
#include "util/stats.hpp"

namespace tomo::metrics {

/// |truth[k] - estimate[k]| for each k in `subset` (all links if empty).
std::vector<double> absolute_errors(const std::vector<double>& truth,
                                    const std::vector<double>& estimate,
                                    const std::vector<std::size_t>& subset);

}  // namespace tomo::metrics
