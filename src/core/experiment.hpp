// End-to-end experiment runner: simulate a scenario, run both algorithms,
// and evaluate against ground truth — one call per figure data point.
#pragma once

#include <vector>

#include "core/correlation_algorithm.hpp"
#include "core/scenario.hpp"
#include "metrics/error_metrics.hpp"
#include "sim/simulator.hpp"

namespace tomo::core {

struct ExperimentConfig {
  sim::SimulatorConfig sim;
  InferenceOptions inference;  // shared by both algorithms
};

struct ExperimentResult {
  std::vector<double> truth;  // true P(X_k = 1)
  /// Links participating in at least one path observed congested — the
  /// population every paper metric is computed over.
  std::vector<std::size_t> potentially_congested;
  InferenceResult correlation;    // the paper's algorithm
  InferenceResult independence;   // the [12] baseline
  /// Wall seconds of the snapshot simulation plus the measurement adoption
  /// (telemetry only — never printed to stdout, mirrored into the bench
  /// JSON as *_sim_seconds).
  double sim_seconds = 0.0;

  std::vector<double> correlation_errors() const;
  std::vector<double> independence_errors() const;
};

ExperimentResult run_experiment(const ScenarioInstance& scenario,
                                const ExperimentConfig& config);

/// run_experiment minus the simulation: both algorithms on an existing
/// measurement of `scenario`, scored against its truth (sim_seconds = 0).
ExperimentResult evaluate_measurement(
    const ScenarioInstance& scenario,
    const sim::MeasurementProvider& measurement,
    const InferenceOptions& options);

/// Links on at least one path with a congested observation, sorted — the
/// paper's metric population, computable from any measurement provider
/// (the streaming daemon re-derives it per window).
std::vector<std::size_t> potentially_congested_links(
    const std::vector<graph::Path>& paths,
    const sim::MeasurementProvider& measurement);

/// Mean absolute error of `estimate` against `truth` over the potentially
/// congested links of `measurement`: the mean_err every streamed window
/// and every batch answer reports. -1 when `truth` is empty or no link is
/// potentially congested; a non-empty `truth` of another length than
/// `estimate` is an error.
double mean_congested_error(const std::vector<double>& truth,
                            const std::vector<double>& estimate,
                            const std::vector<graph::Path>& paths,
                            const sim::MeasurementProvider& measurement);

}  // namespace tomo::core
