// Oracle measurement: exact probabilities straight from the ground-truth
// model, under the separability assumption (a path is good iff all its
// links are). Removes both packet-sampling and snapshot-sampling noise, so
// tests can check algorithms against exact identities and ablations can
// separate estimation error from inference error.
#pragma once

#include <span>

#include "corr/correlation.hpp"
#include "graph/coverage.hpp"
#include "sim/measurement.hpp"

namespace tomo::sim {

class OracleMeasurement final : public MeasurementProvider {
 public:
  /// Keeps references; both must outlive the oracle. `max_total_links`
  /// guards exact_pattern_prob(), whose state enumeration is exponential in
  /// the number of links.
  OracleMeasurement(const corr::CongestionModel& model,
                    const graph::CoverageIndex& coverage,
                    std::size_t max_total_links = 24);

  std::size_t path_count() const override { return coverage_.path_count(); }
  double good_prob(PathId p) const override;
  double pair_good_prob(PathId a, PathId b) const override;
  double exact_pattern_prob(const PathIdSet& pattern) const override;
  std::size_t sample_count() const override { return 0; }

 private:
  /// P(every link on any of `paths` is good).
  double links_good_prob(std::span<const PathId> paths) const;

  const corr::CongestionModel& model_;
  const graph::CoverageIndex& coverage_;
  std::size_t max_total_links_;
};

}  // namespace tomo::sim
