// Edge-case and contract tests across modules: the inputs a careless (or
// adversarial) caller will eventually produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/equations.hpp"
#include "core/scenario.hpp"
#include "corr/correlation.hpp"
#include "graph/coverage.hpp"
#include "graph/routing.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "linalg/simplex.hpp"
#include "reference/simulator.hpp"
#include "reference/solvers.hpp"
#include "sim/measurement.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo {
namespace {

// -------------------------------------------------------------- linalg ----

TEST(LinalgEdge, WideLeastSquaresReturnsConsistentSolution) {
  // Underdetermined (2 equations, 4 unknowns): the basic solution must
  // still satisfy the system exactly.
  linalg::Matrix a{{1, 0, 1, 0}, {0, 1, 0, 1}};
  const linalg::Vector x = linalg::least_squares(a, {2, 3});
  const linalg::Vector ax = a.multiply(x);
  EXPECT_NEAR(ax[0], 2.0, 1e-10);
  EXPECT_NEAR(ax[1], 3.0, 1e-10);
}

TEST(LinalgEdge, ZeroMatrixLeastSquares) {
  linalg::Matrix a(3, 2);  // all zeros
  const linalg::Vector x = linalg::least_squares(a, {1, 1, 1});
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(LinalgEdge, NnlsZeroRhsGivesZero) {
  linalg::Matrix a{{1, 2}, {3, 4}};
  const linalg::NnlsResult r = reference::nnls_dense(a, {0, 0});
  EXPECT_DOUBLE_EQ(r.x[0], 0.0);
  EXPECT_DOUBLE_EQ(r.x[1], 0.0);
  EXPECT_TRUE(r.converged);
}

TEST(LinalgEdge, SimplexDegenerateRhs) {
  // b = 0: every starting slack sits at level 0, so the pivots are
  // degenerate (and must not cycle); the optimum is 0 at x = 0.
  linalg::Matrix a{{1, 1}};
  const linalg::L1Result r = linalg::l1_regression(a, {0});
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
  EXPECT_NEAR(r.x[0], 0.0, 1e-9);
  EXPECT_NEAR(r.x[1], 0.0, 1e-9);
}

TEST(LinalgEdge, L1RegressionOnSingleRow) {
  linalg::Matrix a{{2}};
  const linalg::L1Result r = linalg::l1_regression(a, {4});
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-8);
}

TEST(LinalgEdge, MatrixSizeMismatchesThrow) {
  linalg::Matrix a{{1, 2}};
  EXPECT_THROW(a.multiply({1, 2, 3}), Error);
  EXPECT_THROW(a.multiply_transposed({1, 2}), Error);
  EXPECT_THROW(linalg::dot({1}, {1, 2}), Error);
}

// ----------------------------------------------------------------- rng ----

TEST(RngEdge, SplitStreamsAreDecorrelated) {
  Rng parent(42);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (parent() == child()) ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngEdge, SampleZeroElements) {
  Rng rng(1);
  EXPECT_TRUE(rng.sample_without_replacement(10, 0).empty());
  EXPECT_TRUE(rng.sample_without_replacement(0, 0).empty());
}

// --------------------------------------------------------------- graph ----

TEST(GraphEdge, CoverageOfEmptyLinkSet) {
  auto sys = tomo::testing::figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  EXPECT_TRUE(cov.covered_paths({}).empty());
}

TEST(GraphEdge, MeshPathsAreDeterministic) {
  auto run = [] {
    graph::Graph g;
    std::vector<graph::NodeId> n;
    for (int i = 0; i < 6; ++i) n.push_back(g.add_node());
    for (int i = 0; i < 5; ++i) {
      g.add_link(n[i], n[i + 1]);
      g.add_link(n[i + 1], n[i]);
    }
    return graph::mesh_paths(g, {n[0], n[3], n[5]});
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].links(), b[i].links());
  }
}

TEST(GraphEdge, SingleLinkPath) {
  graph::Graph g;
  const auto a = g.add_node(), b = g.add_node();
  const auto e = g.add_link(a, b);
  const graph::Path p(g, {e});
  EXPECT_EQ(p.length(), 1u);
  EXPECT_EQ(p.source(), a);
  EXPECT_EQ(p.destination(), b);
}

// ---------------------------------------------------------------- corr ----

TEST(CorrEdge, SubsetEnumerationCountFormula) {
  // |C-tilde| = sum over sets of (2^|Cp| - 1).
  corr::CorrelationSets sets(6, {{0, 1, 2}, {3, 4}, {5}});
  const auto subsets = corr::enumerate_correlation_subsets(sets);
  EXPECT_EQ(subsets.size(), (8u - 1) + (4u - 1) + (2u - 1));
}

TEST(CorrEdge, DefaultConstructedSetsAreEmpty) {
  corr::CorrelationSets sets;
  EXPECT_EQ(sets.link_count(), 0u);
  EXPECT_EQ(sets.set_count(), 0u);
}

TEST(CorrEdge, SetStateProbSumsToOne) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  for (std::size_t s = 0; s < sys.sets.set_count(); ++s) {
    const auto& members = sys.sets.set(s);
    double total = 0.0;
    const std::size_t states = std::size_t{1} << members.size();
    for (std::size_t mask = 0; mask < states; ++mask) {
      std::vector<graph::LinkId> subset;
      for (std::size_t bit = 0; bit < members.size(); ++bit) {
        if (mask & (std::size_t{1} << bit)) subset.push_back(members[bit]);
      }
      total += model->set_state_prob(s, subset);
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "set " << s;
  }
}

// ----------------------------------------------------------- equations ----

TEST(EquationsEdge, RedundantBudgetIsHonoured) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  core::EquationBuildOptions opts;
  opts.max_pair_equations = 1;
  const auto eq = core::build_equations(cov, sys.sets, oracle, opts);
  EXPECT_LE(eq.n2, 1u + 0u);  // budget 1 (plus rank-increasing continuation
                              // would still count toward n2; here rank is
                              // already full after one pair)
}

// A path good in no snapshot has no usable estimate: it gets no equation,
// single or pair, and its single is counted and recorded as unusable.
TEST(EquationsEdge, MinGoodSnapshotsFiltersThinEstimates) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  sim::SimulatorConfig config;
  config.snapshots = 100;
  config.seed = 3;
  auto simr = reference::simulate_exact(sys.graph, sys.paths, *model, config);
  sim::MeasurementBlock block = std::move(simr.measurement);
  std::fill_n(block.good_row(0), block.words_per_path(), 0);
  block.recount();
  const sim::EmpiricalMeasurement meas(std::move(block));
  ASSERT_EQ(meas.good_prob(0), 0.0);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  std::vector<core::CandidatePaths> unusable;
  const auto eq = core::build_equations(cov, sys.sets, meas, {}, &unusable);
  ASSERT_FALSE(eq.equations.empty());
  for (const core::Equation e : eq.equations) {
    EXPECT_EQ(std::ranges::count(e.paths, graph::PathId{0}), 0);
  }
  EXPECT_GE(eq.dropped_unusable, 1u);
  EXPECT_EQ(std::ranges::count(unusable, core::CandidatePaths{0, 0}), 1);
}

// ------------------------------------------------------------ scenario ----

TEST(ScenarioEdge, ZeroFabricProbMeansAllSingletons) {
  core::ScenarioConfig config;
  config.topology = core::TopologyKind::kPlanetLab;
  config.routers = 60;
  config.vantage_points = 6;
  config.fabric_prob = 0.0;
  config.seed = 9;
  const auto inst = core::build_scenario(config);
  for (std::size_t s = 0; s < inst.declared_sets.set_count(); ++s) {
    EXPECT_EQ(inst.declared_sets.set(s).size(), 1u);
  }
}

TEST(ScenarioEdge, ClusterSizeCapsDeclaredSets) {
  core::ScenarioConfig config;
  config.topology = core::TopologyKind::kPlanetLab;
  config.routers = 80;
  config.vantage_points = 8;
  config.cluster_size = 3;
  config.seed = 10;
  const auto inst = core::build_scenario(config);
  std::size_t biggest = 0;
  for (std::size_t s = 0; s < inst.declared_sets.set_count(); ++s) {
    biggest = std::max(biggest, inst.declared_sets.set(s).size());
  }
  EXPECT_LE(biggest, 3u);
}

TEST(ScenarioEdge, FullCongestionIsRepresentable) {
  core::ScenarioConfig config;
  config.topology = core::TopologyKind::kPlanetLab;
  config.routers = 40;
  config.vantage_points = 5;
  config.congested_fraction = 1.0;
  config.seed = 11;
  const auto inst = core::build_scenario(config);
  EXPECT_EQ(inst.congested_links.size(), inst.graph.link_count());
}

}  // namespace
}  // namespace tomo
