#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/correlation_algorithm.hpp"
#include "core/equations.hpp"
#include "corr/model_factory.hpp"
#include "reference/simulator.hpp"
#include "reference/solvers.hpp"
#include "sim/measurement.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

namespace tomo::core {
namespace {

using tomo::testing::figure_1a;
using tomo::testing::figure_1a_model;

EquationSystem build_fig1a_system() {
  static auto sys = figure_1a();
  static auto model = figure_1a_model(sys.sets);
  static graph::CoverageIndex cov(sys.graph, sys.paths);
  static sim::OracleMeasurement oracle(*model, cov);
  return build_equations(cov, sys.sets, oracle);
}

/// The weighted system as the solver sees it, densified.
reference::DenseSystem dense_weighted(const EquationSystem& sys,
                                      std::size_t samples) {
  return reference::densify(sparse_view(sys, samples));
}

TEST(VarianceWeights, OracleSystemsAreLeftAlone) {
  const EquationSystem sys = build_fig1a_system();
  const reference::DenseSystem dense = dense_weighted(sys, /*samples=*/0);
  for (std::size_t i = 0; i < sys.equations.size(); ++i) {
    EXPECT_EQ(dense.y[i], sys.equations[i].y);
  }
}

TEST(VarianceWeights, ScalesRowsAndRhsTogether) {
  const EquationSystem sys = build_fig1a_system();
  const reference::DenseSystem original = dense_weighted(sys, 0);
  const reference::DenseSystem scaled = dense_weighted(sys, 1000);
  for (std::size_t i = 0; i < sys.equations.size(); ++i) {
    // Rows and rhs must be scaled by the same factor: the solution of a
    // consistent system is unchanged.
    double factor = 0.0;
    for (std::size_t c = 0; c < scaled.a.cols(); ++c) {
      if (original.a(i, c) != 0.0) {
        factor = scaled.a(i, c) / original.a(i, c);
        break;
      }
    }
    ASSERT_GT(factor, 0.0);
    EXPECT_NEAR(scaled.y[i], original.y[i] * factor, 1e-12);
  }
}

TEST(VarianceWeights, WellSupportedEquationsWeighMore) {
  // prob 0.9 (well supported) vs prob 0.1 (thin): the 0.9 equation's
  // variance (1-p)/(pN) is smaller, so its weight is larger.
  EquationSystem sys;
  sys.link_count = 2;
  const std::vector<graph::LinkId> link0{0}, link1{1};
  sys.equations.push_back(link0, {0, 0}, std::log(0.9));
  sys.equations.push_back(link1, {1, 1}, std::log(0.1));
  const reference::DenseSystem dense = dense_weighted(sys, 1000);
  EXPECT_GT(dense.a(0, 0), dense.a(1, 1));
}

TEST(VarianceWeights, StructuralZerosStayExactlyZero) {
  // The weighting scales only each equation's support columns: off-support
  // entries are exact zeros and support entries carry exactly the row's
  // weight.
  const EquationSystem sys = build_fig1a_system();
  const reference::DenseSystem dense = dense_weighted(sys, 500);
  for (std::size_t i = 0; i < sys.equations.size(); ++i) {
    const double weight = dense.y[i] / sys.equations[i].y;
    for (std::size_t c = 0; c < dense.a.cols(); ++c) {
      const bool in_support =
          std::find(sys.equations[i].links.begin(),
                    sys.equations[i].links.end(),
                    c) != sys.equations[i].links.end();
      if (in_support) {
        EXPECT_DOUBLE_EQ(dense.a(i, c), weight)
            << "equation " << i << " column " << c;
      } else {
        EXPECT_EQ(dense.a(i, c), 0.0)
            << "equation " << i << " column " << c;
      }
    }
  }
}

TEST(VarianceWeights, ConsistentSolutionUnchanged) {
  // Weighting a consistent full-rank system must not move the solution.
  const EquationSystem eq = build_fig1a_system();
  const auto unweighted = linalg::solve_log_system(sparse_view(eq));
  // Pretend 5000 snapshots.
  const auto weighted = linalg::solve_log_system(sparse_view(eq, 5000));
  for (std::size_t k = 0; k < unweighted.x.size(); ++k) {
    EXPECT_NEAR(weighted.x[k], unweighted.x[k], 1e-6);
  }
}

TEST(VarianceWeights, EndToEndOptionStaysAccurate) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  sim::SimulatorConfig config;
  config.snapshots = 20000;
  config.seed = 77;
  auto simr = reference::simulate_exact(sys.graph, sys.paths, *model, config);
  const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
  InferenceOptions options;
  options.weight_by_variance = true;
  const InferenceResult r = infer_congestion(sys.graph, sys.paths, cov,
                                             sys.sets, meas, options);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_NEAR(r.congestion_prob[e], model->marginal(e), 0.03)
        << "link " << e;
  }
}

}  // namespace
}  // namespace tomo::core
