#include <gtest/gtest.h>

#include <cmath>

#include "core/theorem_algorithm.hpp"
#include "corr/model_factory.hpp"
#include "reference/simulator.hpp"
#include "sim/measurement.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::core {
namespace {

using tomo::testing::figure_1a;
using tomo::testing::figure_1a_model;
using tomo::testing::figure_1b;

TEST(TheoremAlgorithm, RecoversAllStateProbabilitiesOnFigure1a) {
  // The proof's showcase: with exact pattern probabilities, every per-set
  // state probability — including the correlated joint P(e1,e2) — is
  // identified exactly.
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const TheoremResult r = run_theorem_algorithm(cov, sys.sets, oracle);

  // Set 0 = {e1,e2} with table {00:0.65, 01:0.10, 10:0.05, 11:0.20}.
  EXPECT_NEAR(r.state_prob[0][0], 0.65, 1e-9);
  EXPECT_NEAR(r.state_prob[0][1], 0.10, 1e-9);
  EXPECT_NEAR(r.state_prob[0][2], 0.05, 1e-9);
  EXPECT_NEAR(r.state_prob[0][3], 0.20, 1e-9);
  EXPECT_NEAR(r.state_prob[1][1], 0.15, 1e-9);
  EXPECT_NEAR(r.state_prob[2][1], 0.40, 1e-9);
}

TEST(TheoremAlgorithm, MarginalsMatchModel) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const TheoremResult r = run_theorem_algorithm(cov, sys.sets, oracle);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 1e-9);
  }
}

TEST(TheoremAlgorithm, CongestionFactorsMatchDefinition) {
  // α_A = P(S^p = A) / P(S^p = ∅) (paper Eq. 2).
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const TheoremResult r = run_theorem_algorithm(cov, sys.sets, oracle);
  EXPECT_NEAR(r.alpha[0][1], 0.10 / 0.65, 1e-9);  // {e1}
  EXPECT_NEAR(r.alpha[0][2], 0.05 / 0.65, 1e-9);  // {e2}
  EXPECT_NEAR(r.alpha[0][3], 0.20 / 0.65, 1e-9);  // {e1,e2}
  EXPECT_NEAR(r.alpha[1][1], 0.15 / 0.85, 1e-9);  // {e3}
}

TEST(TheoremAlgorithm, JointCongestedProbability) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const TheoremResult r = run_theorem_algorithm(cov, sys.sets, oracle);
  // P(e1 and e2 congested) = 0.20 (within-set joint).
  EXPECT_NEAR(joint_congested_prob(r, sys.sets, {0, 1}), 0.20, 1e-9);
  // Across sets the probability factorizes (paper's Step 4 example).
  EXPECT_NEAR(joint_congested_prob(r, sys.sets, {0, 2}),
              model->marginal(0) * model->marginal(2), 1e-9);
  // Empty query: probability 1.
  EXPECT_NEAR(joint_congested_prob(r, sys.sets, {}), 1.0, 1e-12);
}

TEST(TheoremAlgorithm, AgreesWithEmpiricalMeasurements) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  sim::SimulatorConfig config;
  config.snapshots = 60000;
  config.seed = 7;
  auto simr = reference::simulate_exact(sys.graph, sys.paths, *model, config);
  const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
  const TheoremResult r = run_theorem_algorithm(cov, sys.sets, meas);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 0.02)
        << "link " << e;
  }
}

TEST(TheoremAlgorithm, DetectsAssumption4Violation) {
  auto sys = figure_1b();
  auto model = corr::make_independent({0.2, 0.3, 0.15});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  EXPECT_THROW(run_theorem_algorithm(cov, sys.sets, oracle), Error);
}

TEST(TheoremAlgorithm, IndependentSpecialCaseMatchesMarginals) {
  // With singleton sets, the theorem algorithm degenerates to classical
  // Boolean tomography and must still be exact.
  auto sys = figure_1a();
  auto model = corr::make_independent({0.3, 0.25, 0.15, 0.4});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const auto singles = corr::CorrelationSets::singletons(4);
  const TheoremResult r = run_theorem_algorithm(cov, singles, oracle);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 1e-9);
  }
}

TEST(TheoremAlgorithm, GuardsAgainstOversizedProblems) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  TheoremOptions opts;
  opts.max_links = 2;
  EXPECT_THROW(run_theorem_algorithm(cov, sys.sets, oracle, opts), Error);
}

TEST(TheoremAlgorithm, RequiresObservableAllGoodState) {
  auto sys = figure_1a();
  auto model = corr::make_independent({1.0, 0.1, 0.1, 0.1});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  // e1 always congested => P(all paths good) = 0 => no ratio exists.
  EXPECT_THROW(run_theorem_algorithm(cov, sys.sets, oracle), Error);
}

}  // namespace
}  // namespace tomo::core
