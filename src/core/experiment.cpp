#include "core/experiment.hpp"

#include <algorithm>
#include <unordered_set>

#include "core/independence_algorithm.hpp"
#include "sim/measurement.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace tomo::core {

std::vector<double> ExperimentResult::correlation_errors() const {
  return metrics::absolute_errors(truth, correlation.congestion_prob,
                                  potentially_congested);
}

std::vector<double> ExperimentResult::independence_errors() const {
  return metrics::absolute_errors(truth, independence.congestion_prob,
                                  potentially_congested);
}

std::vector<std::size_t> potentially_congested_links(
    const std::vector<graph::Path>& paths,
    const sim::MeasurementProvider& measurement) {
  // Potentially congested links: on >= 1 path that was ever congested.
  std::unordered_set<std::size_t> flagged;
  for (graph::PathId p = 0; p < paths.size(); ++p) {
    if (measurement.good_prob(p) < 1.0) {
      for (graph::LinkId e : paths[p].links()) {
        flagged.insert(e);
      }
    }
  }
  std::vector<std::size_t> links(flagged.begin(), flagged.end());
  std::sort(links.begin(), links.end());
  return links;
}

double mean_congested_error(const std::vector<double>& truth,
                            const std::vector<double>& estimate,
                            const std::vector<graph::Path>& paths,
                            const sim::MeasurementProvider& measurement) {
  if (truth.empty()) return -1.0;
  TOMO_REQUIRE(truth.size() == estimate.size(),
               "mean error: truth and estimate differ in link count");
  const std::vector<std::size_t> population =
      potentially_congested_links(paths, measurement);
  if (population.empty()) return -1.0;
  return mean(metrics::absolute_errors(truth, estimate, population));
}

ExperimentResult evaluate_measurement(
    const ScenarioInstance& scenario,
    const sim::MeasurementProvider& measurement,
    const InferenceOptions& options) {
  const graph::CoverageIndex coverage(scenario.graph, scenario.paths);
  ExperimentResult result;
  result.truth = scenario.true_marginals;
  result.potentially_congested =
      potentially_congested_links(scenario.paths, measurement);
  result.correlation =
      infer_congestion(scenario.graph, scenario.paths, coverage,
                       scenario.declared_sets, measurement, options);
  result.independence = infer_congestion_independent(
      scenario.graph, scenario.paths, coverage, measurement, options);
  return result;
}

ExperimentResult run_experiment(const ScenarioInstance& scenario,
                                const ExperimentConfig& config) {
  TOMO_REQUIRE(scenario.truth != nullptr, "scenario has no truth model");

  const Stopwatch sim_timer;
  sim::SimulationResult sim_result = sim::simulate(
      scenario.graph, scenario.paths, *scenario.truth, config.sim);
  // The simulator's good-bit block is adopted as-is — no re-packing.
  const sim::EmpiricalMeasurement measurement(
      std::move(sim_result.measurement));
  const double sim_seconds = sim_timer.seconds();

  ExperimentResult result =
      evaluate_measurement(scenario, measurement, config.inference);
  result.sim_seconds = sim_seconds;
  return result;
}

}  // namespace tomo::core
