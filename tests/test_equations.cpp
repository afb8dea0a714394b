#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/equations.hpp"
#include "corr/model_factory.hpp"
#include "reference/solvers.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::core {
namespace {

using tomo::testing::figure_1a;
using tomo::testing::figure_1a_model;

TEST(Equations, Figure1aBuildsThePaperSystem) {
  // §4's worked example: singles y1,y2,y3 plus exactly one pair equation
  // (P2,P3) — the pair (P1,P2) involves correlated links e1,e2 and must be
  // rejected; (P1,P3) is disjoint and cannot add rank.
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const EquationSystem eq = build_equations(cov, sys.sets, oracle);

  EXPECT_EQ(eq.n1, 3u);
  EXPECT_EQ(eq.n2, 1u);
  EXPECT_EQ(eq.rank, 4u);
  EXPECT_TRUE(eq.full_rank());
  // The pair equation covers exactly {e2,e3,e4}.
  const Equation pair = eq.equations[eq.equations.size() - 1];
  ASSERT_EQ(pair.paths.size(), 2u);
  const std::vector<graph::LinkId> want{1, 2, 3};
  EXPECT_TRUE(std::ranges::equal(pair.links, want));
}

TEST(Equations, RightHandSidesAreLogProbabilities) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const EquationSystem eq = build_equations(cov, sys.sets, oracle);
  // y1 = log P(P1 good) = log(P(e1 good) P(e3 good)).
  EXPECT_NEAR(eq.equations[0].y, std::log(0.70 * 0.85), 1e-12);
  for (const Equation& e : eq.equations) {
    EXPECT_LE(e.y, 0.0);
  }
}

TEST(Equations, IndependenceStructureAcceptsEveryPath) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const auto singles = corr::CorrelationSets::singletons(4);
  const EquationSystem eq = build_equations(cov, singles, oracle);
  EXPECT_EQ(eq.n1, 3u);
  EXPECT_TRUE(eq.full_rank());
  EXPECT_EQ(eq.dropped_correlated, 0u);
}

TEST(Equations, CorrelatedPathIsRejected) {
  // Make e1 and e3 correlated: P1 = {e1,e3} is then unusable as a single.
  auto sys = figure_1a();
  corr::CorrelationSets sets(4, {{0, 2}, {1}, {3}});
  auto model = figure_1a_model(sys.sets);  // truth irrelevant here
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const EquationSystem eq = build_equations(cov, sets, oracle);
  EXPECT_EQ(eq.n1, 2u);  // P2, P3 remain
  EXPECT_GE(eq.dropped_correlated, 1u);
  EXPECT_FALSE(eq.full_rank());  // e1's column is unreachable
}

TEST(Equations, UnusableMeasurementsAreDropped) {
  auto sys = figure_1a();
  // e3 congested with probability 1: P1 and P2 are never good, so their
  // single equations are unusable.
  auto model = corr::make_independent({0.1, 0.1, 1.0, 0.1});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const EquationSystem eq =
      build_equations(cov, corr::CorrelationSets::singletons(4), oracle);
  EXPECT_EQ(eq.n1, 1u);  // only P3 = {e2,e4}
  EXPECT_GE(eq.dropped_unusable, 2u);
}

TEST(Equations, PairsDisabledOption) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  EquationBuildOptions opts;
  opts.use_pairs = false;
  const EquationSystem eq = build_equations(cov, sys.sets, oracle, opts);
  EXPECT_EQ(eq.n2, 0u);
  EXPECT_EQ(eq.rank, 3u);
  EXPECT_FALSE(eq.full_rank());
}

TEST(Equations, PairCandidateCapRespected) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const auto unlimited = build_equations(cov, sys.sets, oracle);
  EXPECT_TRUE(unlimited.full_rank());
}

TEST(Equations, MatrixMatchesEquationSupports) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const EquationSystem eq = build_equations(cov, sys.sets, oracle);
  const reference::DenseSystem dense = reference::densify(sparse_view(eq));
  ASSERT_EQ(dense.a.rows(), eq.equations.size());
  for (std::size_t i = 0; i < eq.equations.size(); ++i) {
    for (graph::LinkId e = 0; e < 4; ++e) {
      const bool in_support =
          std::find(eq.equations[i].links.begin(),
                    eq.equations[i].links.end(),
                    e) != eq.equations[i].links.end();
      EXPECT_DOUBLE_EQ(dense.a(i, e), in_support ? 1.0 : 0.0);
    }
  }
}

TEST(Equations, EquationsAreConsistentWithTruth) {
  // With oracle measurements, every accepted equation must hold exactly
  // for the true log-probabilities.
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const EquationSystem eq = build_equations(cov, sys.sets, oracle);
  linalg::Vector x_true(4);
  for (graph::LinkId e = 0; e < 4; ++e) {
    x_true[e] = std::log(model->prob_all_good({e}));
  }
  for (std::size_t i = 0; i < eq.equations.size(); ++i) {
    double lhs = 0.0;
    for (graph::LinkId e : eq.equations[i].links) lhs += x_true[e];
    EXPECT_NEAR(lhs, eq.equations[i].y, 1e-10) << "equation " << i;
  }
}

}  // namespace
}  // namespace tomo::core
