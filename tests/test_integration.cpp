// End-to-end integration tests: full scenarios through the simulator and
// both algorithms, checking the paper's qualitative claims at small scale.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "metrics/cdf.hpp"
#include "metrics/error_metrics.hpp"
#include "reference/simulator.hpp"
#include "sim/measurement.hpp"
#include "util/stats.hpp"

namespace tomo::core {
namespace {

ExperimentConfig fast_config() {
  ExperimentConfig config;
  config.sim.snapshots = 800;
  config.sim.seed = 31;
  return config;
}

/// core::run_experiment on noise-free measurements, so the checks below
/// see estimation error only.
ExperimentResult run_exact_experiment(const ScenarioInstance& scenario,
                                      const ExperimentConfig& config) {
  sim::SimulationResult simr = reference::simulate_exact(
      scenario.graph, scenario.paths, *scenario.truth, config.sim);
  return evaluate_measurement(
      scenario, sim::EmpiricalMeasurement(std::move(simr.measurement)),
      config.inference);
}

ScenarioConfig base_scenario() {
  ScenarioConfig config;
  config.topology = TopologyKind::kBrite;
  config.as_nodes = 40;
  config.as_endpoints = 12;
  config.congested_fraction = 0.10;
  config.seed = 77;
  return config;
}

TEST(Integration, IdealConditionsCorrelationBeatsIndependence) {
  const ScenarioInstance inst = build_scenario(base_scenario());
  const ExperimentResult result = run_exact_experiment(inst, fast_config());
  const auto corr_err = result.correlation_errors();
  const auto ind_err = result.independence_errors();
  ASSERT_FALSE(corr_err.empty());
  const double corr_mean = mean(corr_err);
  const double ind_mean = mean(ind_err);
  // The paper's headline: under correlated congestion, the correlation
  // algorithm is accurate and the baseline is notably worse.
  EXPECT_LT(corr_mean, 0.06);
  EXPECT_GT(ind_mean, corr_mean);
}

TEST(Integration, PotentiallyCongestedLinksCoverCongestedTruth) {
  const ScenarioInstance inst = build_scenario(base_scenario());
  const ExperimentResult result = run_exact_experiment(inst, fast_config());
  // Every truly congested link with non-trivial marginal should appear in
  // the potentially congested population (its paths get congested).
  std::size_t missing = 0;
  for (graph::LinkId e : inst.congested_links) {
    if (inst.true_marginals[e] < 0.15) continue;
    if (!std::binary_search(result.potentially_congested.begin(),
                            result.potentially_congested.end(), e)) {
      ++missing;
    }
  }
  EXPECT_EQ(missing, 0u);
}

TEST(Integration, CdfSeriesIsMonotone) {
  const ScenarioInstance inst = build_scenario(base_scenario());
  const ExperimentResult result = run_exact_experiment(inst, fast_config());
  const auto series = metrics::cdf_series(result.correlation_errors());
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].percent, series[i - 1].percent);
  }
  EXPECT_NEAR(series.back().percent, 100.0, 1e-9);
}

TEST(Integration, MoreCongestionHurtsIndependenceMore) {
  // Fig 3(a)'s shape, averaged over seeds (single instances are noisy):
  // at heavy congestion the baseline is clearly worse than the
  // correlation algorithm, and it loses more ground than at light
  // congestion.
  double gap_low = 0.0, gap_high = 0.0, corr_high_sum = 0.0,
         ind_high_sum = 0.0;
  const int trials = 3;
  for (int trial = 0; trial < trials; ++trial) {
    auto low = base_scenario();
    low.congested_fraction = 0.05;
    low.seed = 100 + trial;
    auto high = base_scenario();
    high.congested_fraction = 0.25;
    high.seed = 100 + trial;
    const auto r_low =
        run_exact_experiment(build_scenario(low), fast_config());
    const auto r_high =
        run_exact_experiment(build_scenario(high), fast_config());
    gap_low += mean(r_low.independence_errors()) -
               mean(r_low.correlation_errors());
    gap_high += mean(r_high.independence_errors()) -
                mean(r_high.correlation_errors());
    corr_high_sum += mean(r_high.correlation_errors());
    ind_high_sum += mean(r_high.independence_errors());
  }
  EXPECT_LT(corr_high_sum, ind_high_sum);
  EXPECT_GT(gap_high, -0.005);  // baseline never meaningfully ahead
  (void)gap_low;
}

TEST(Integration, UnidentifiableScenarioStillFavoursCorrelation) {
  auto config = base_scenario();
  config.unidentifiable_fraction = 0.5;
  const ScenarioInstance inst = build_scenario(config);
  const ExperimentResult result = run_exact_experiment(inst, fast_config());
  const double corr_mean = mean(result.correlation_errors());
  const double ind_mean = mean(result.independence_errors());
  EXPECT_LT(corr_mean, ind_mean + 0.02);  // never meaningfully worse
  EXPECT_LT(corr_mean, 0.15);
}

TEST(Integration, MislabeledScenarioStillFavoursCorrelation) {
  auto config = base_scenario();
  config.mislabeled_fraction = 0.5;
  const ScenarioInstance inst = build_scenario(config);
  const ExperimentResult result = run_exact_experiment(inst, fast_config());
  const double corr_mean = mean(result.correlation_errors());
  const double ind_mean = mean(result.independence_errors());
  EXPECT_LT(corr_mean, ind_mean + 0.02);
}

TEST(Integration, PlanetLabScenarioRuns) {
  ScenarioConfig config;
  config.topology = TopologyKind::kPlanetLab;
  config.routers = 70;
  config.vantage_points = 8;
  config.congested_fraction = 0.10;
  config.seed = 12;
  const ScenarioInstance inst = build_scenario(config);
  const ExperimentResult result = run_exact_experiment(inst, fast_config());
  EXPECT_FALSE(result.correlation_errors().empty());
  EXPECT_LT(mean(result.correlation_errors()), 0.2);
}

TEST(Integration, ExperimentIsDeterministic) {
  const ScenarioInstance inst = build_scenario(base_scenario());
  const ExperimentResult a = run_exact_experiment(inst, fast_config());
  const ExperimentResult b = run_exact_experiment(inst, fast_config());
  EXPECT_EQ(a.correlation.congestion_prob, b.correlation.congestion_prob);
  EXPECT_EQ(a.independence.congestion_prob,
            b.independence.congestion_prob);
}

}  // namespace
}  // namespace tomo::core
