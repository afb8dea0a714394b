#include <gtest/gtest.h>

#include <cmath>

#include "core/correlation_algorithm.hpp"
#include "core/independence_algorithm.hpp"
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

TEST(CorrelationAlgorithm, ExactOnFigure1aWithOracle) {
  // With exact measurements and a full-rank system, the §4 algorithm must
  // recover every marginal exactly even though e1,e2 are correlated.
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  for (const auto solver :
       {linalg::SolverKind::kLeastSquares, linalg::SolverKind::kNnls,
        linalg::SolverKind::kL1Lp, linalg::SolverKind::kIrls}) {
    InferenceOptions opts;
    opts.solver.kind = solver;
    const InferenceResult r = infer_congestion(
        sys.graph, sys.paths, cov, sys.sets, oracle, opts);
    for (graph::LinkId e = 0; e < 4; ++e) {
      EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 1e-5)
          << "solver " << linalg::to_string(solver) << " link " << e;
    }
  }
}

TEST(CorrelationAlgorithm, ConvergesWithSnapshots) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  sim::SimulatorConfig config;
  config.seed = 101;
  double previous_error = 1.0;
  for (const std::size_t snapshots : {200u, 20000u}) {
    config.snapshots = snapshots;
    auto simr =
        reference::simulate_exact(sys.graph, sys.paths, *model, config);
    const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
    const InferenceResult r =
        infer_congestion(sys.graph, sys.paths, cov, sys.sets, meas);
    double err = 0.0;
    for (graph::LinkId e = 0; e < 4; ++e) {
      err = std::max(err, std::abs(r.congestion_prob[e] -
                                   model->marginal(e)));
    }
    EXPECT_LT(err, previous_error + 0.02);
    previous_error = err;
  }
  EXPECT_LT(previous_error, 0.03);  // 20k snapshots: tight estimates
}

TEST(CorrelationAlgorithm, HandlesPacketNoise) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  sim::SimulatorConfig config;
  config.snapshots = 5000;
  config.packets_per_path = 800;
  config.seed = 103;
  auto simr = sim::simulate(sys.graph, sys.paths, *model, config);
  const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
  const InferenceResult r =
      infer_congestion(sys.graph, sys.paths, cov, sys.sets, meas);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 0.08)
        << "link " << e;
  }
}

TEST(IndependenceAlgorithm, ExactWhenTruthIsIndependent) {
  auto sys = figure_1a();
  auto model = corr::make_independent({0.3, 0.25, 0.15, 0.4});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const InferenceResult r =
      infer_congestion_independent(sys.graph, sys.paths, cov, oracle);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 1e-6);
  }
}

TEST(IndependenceAlgorithm, BiasedWhenLinksCorrelated) {
  // Figure 1(b) augmented: force the independence baseline to use the
  // correlated pair. Truth: e1,e2 congest together (common shock), e3
  // independent. The baseline's pair equation P(Y1=0,Y2=0) =
  // x1+x2+x3 is wrong because P(e1,e2 both good) != P(e1)P(e2).
  auto sys = figure_1b();
  std::vector<corr::Shock> shocks(2);
  shocks[0].rho = 0.3;
  shocks[0].members = {0, 1};
  corr::CommonShockModel model(sys.sets, {0.0, 0.0, 0.2}, shocks);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(model, cov);
  const InferenceResult r =
      infer_congestion_independent(sys.graph, sys.paths, cov, oracle);
  // e3's true congestion probability is 0.2; the baseline, forced to
  // explain the correlated joint with independent links, misses it.
  double max_err = 0.0;
  for (graph::LinkId e = 0; e < 3; ++e) {
    max_err = std::max(max_err,
                       std::abs(r.congestion_prob[e] - model.marginal(e)));
  }
  EXPECT_GT(max_err, 0.03);
}

TEST(DemoteToSingletons, MovesLinksOut) {
  corr::CorrelationSets sets(4, {{0, 1, 2}, {3}});
  const auto demoted = demote_to_singletons(sets, {1});
  EXPECT_EQ(demoted.set_count(), 3u);
  EXPECT_NE(demoted.set_of(0), demoted.set_of(1));
  EXPECT_EQ(demoted.set_of(0), demoted.set_of(2));
}

TEST(DemoteToSingletons, WholeSetDemotion) {
  corr::CorrelationSets sets(3, {{0, 1}, {2}});
  const auto demoted = demote_to_singletons(sets, {0, 1});
  EXPECT_EQ(demoted.set_count(), 3u);
  EXPECT_NE(demoted.set_of(0), demoted.set_of(1));
}

TEST(CorrelationAlgorithm, RefinementRecoversFigure1b) {
  // Figure 1(b) is unidentifiable under its declared sets. With the §3.3
  // fallback the algorithm treats the three links as uncorrelated and can
  // at least produce estimates; with a truly independent truth they are
  // even correct.
  auto sys = figure_1b();
  auto model = corr::make_independent({0.2, 0.3, 0.15});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  InferenceOptions opts;
  opts.refine_unidentifiable = true;
  const InferenceResult r =
      infer_congestion(sys.graph, sys.paths, cov, sys.sets, oracle, opts);
  EXPECT_EQ(r.refined_links.size(), 3u);
  // The refined system has singles for P1,P2 and the pair — still rank 3?
  // {e1,e3},{e2,e3},{e1,e2,e3} has rank 3.
  EXPECT_EQ(r.system.rank, 3u);
  for (graph::LinkId e = 0; e < 3; ++e) {
    EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 1e-5);
  }
}

TEST(CorrelationAlgorithm, WithoutRefinementFigure1bIsUnderdetermined) {
  auto sys = figure_1b();
  auto model = corr::make_independent({0.2, 0.3, 0.15});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  InferenceOptions opts;
  opts.refine_unidentifiable = false;
  const InferenceResult r =
      infer_congestion(sys.graph, sys.paths, cov, sys.sets, oracle, opts);
  // Both paths involve e3 only through correlated company? P1={e1,e3} is
  // correlation-free (e1 in {e1,e2}, e3 alone), as is P2. But their pair
  // union {e1,e2,e3} is correlated, so rank stays 2 < 3.
  EXPECT_EQ(r.system.rank, 2u);
  EXPECT_FALSE(r.system.full_rank());
}

TEST(CorrelationAlgorithm, ThrowsWhenNothingIsUsable) {
  auto sys = figure_1a();
  // Every link congested with probability 1: no path is ever good.
  auto model = corr::make_independent({1.0, 1.0, 1.0, 1.0});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  EXPECT_THROW(infer_congestion(sys.graph, sys.paths, cov,
                                corr::CorrelationSets::singletons(4), oracle),
               Error);
}

TEST(CorrelationAlgorithm, EstimatesStayInUnitInterval) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  sim::SimulatorConfig config;
  config.snapshots = 50;  // deliberately noisy
  config.packets_per_path = 30;
  config.seed = 999;
  auto simr = sim::simulate(sys.graph, sys.paths, *model, config);
  const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
  const InferenceResult r =
      infer_congestion(sys.graph, sys.paths, cov, sys.sets, meas);
  for (double p : r.congestion_prob) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace tomo::core
