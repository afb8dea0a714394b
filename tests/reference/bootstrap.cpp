#include "reference/bootstrap.hpp"

#include "reference/observations.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace tomo::reference {

core::BootstrapResult bootstrap_congestion(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementBlock& block, const core::BootstrapOptions& options) {
  const std::size_t links = g.link_count();
  const PathObservations obs = to_observations(block);

  core::BootstrapResult result;
  result.point = core::infer_congestion(g, paths, coverage, sets,
                                        ScalarMeasurement(obs),
                                        options.inference)
                     .congestion_prob;

  std::vector<std::vector<double>> samples(links);
  for (std::size_t r = 0; r < options.replicates; ++r) {
    Rng rng = core::replicate_rng(options.seed, r);
    const ScalarMeasurement measurement(resample_snapshots(obs, rng));
    std::vector<double> estimate;
    try {
      estimate = core::infer_congestion(g, paths, coverage, sets, measurement,
                                        options.inference)
                     .congestion_prob;
    } catch (const Error&) {
      ++result.skipped;  // the resample lost every usable equation
      continue;
    }
    for (graph::LinkId e = 0; e < links; ++e) {
      samples[e].push_back(estimate[e]);
    }
    ++result.replicates;
  }
  TOMO_REQUIRE(result.replicates >= 2, "bootstrap: too few usable replicates");

  const double tail = (1.0 - core::kBootstrapConfidence) / 2.0;
  result.lower.resize(links);
  result.upper.resize(links);
  for (graph::LinkId e = 0; e < links; ++e) {
    const Interval interval =
        percentile_pair(samples[e], 100.0 * tail, 100.0 * (1.0 - tail));
    result.lower[e] = interval.lo;
    result.upper[e] = interval.hi;
  }
  return result;
}

}  // namespace tomo::reference
