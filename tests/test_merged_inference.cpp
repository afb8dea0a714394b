// Direct edge-case tests for the §3.3 merged-link inference pipeline
// (core::infer_on_merged). The happy paths are covered indirectly by
// test_transform.cpp / test_merged_bootstrap.cpp; this suite pins the
// degenerate shapes: every link fusing into a single merged link, serial
// chains under singleton sets, single-path systems, and rank-deficient
// measurements that leave merged links unconstrained.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/merged_inference.hpp"
#include "corr/joint_table.hpp"
#include "corr/model_factory.hpp"
#include "graph/coverage.hpp"
#include "sim/oracle.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::core {
namespace {

using tomo::testing::figure_1a;
using tomo::testing::figure_1a_model;

/// A single path over a serial chain of `links` links (a -> b -> c -> ...).
tomo::testing::ToySystem chain_system(std::size_t links,
                                      bool one_correlation_set) {
  tomo::testing::ToySystem sys;
  graph::NodeId prev = sys.graph.add_node("n0");
  std::vector<graph::LinkId> chain;
  for (std::size_t i = 0; i < links; ++i) {
    std::string name = std::to_string(i + 1);
    name.insert(name.begin(), 'n');  // see Graph::add_node on -Wrestrict
    const graph::NodeId next = sys.graph.add_node(std::move(name));
    chain.push_back(sys.graph.add_link(prev, next));
    prev = next;
  }
  sys.paths.emplace_back(sys.graph, chain);
  if (one_correlation_set) {
    sys.sets = corr::CorrelationSets(links, {chain});
  } else {
    sys.sets = corr::CorrelationSets::singletons(links);
  }
  return sys;
}

TEST(MergedInference, AllLinksMergeIntoOne) {
  // One path over a 4-link chain, all links in one correlation set: every
  // intermediate node trips the §3.3 criterion and the entire chain
  // collapses into a single merged link.
  auto sys = chain_system(4, /*one_correlation_set=*/true);
  auto model = corr::make_independent({0.1, 0.05, 0.2, 0.15});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);

  const MergedInferenceResult r =
      infer_on_merged(sys.graph, sys.paths, sys.sets, oracle);
  ASSERT_EQ(r.transform.graph.link_count(), 1u);
  ASSERT_EQ(r.transform.composition.size(), 1u);
  EXPECT_EQ(r.transform.composition[0].size(), 4u);
  // The merged link is congested iff the path is; the oracle makes that
  // exact: 1 - prod(1 - p_i).
  const double path_congested = 1.0 - oracle.good_prob(0);
  EXPECT_NEAR(r.inference.congestion_prob[0], path_congested, 1e-6);
  // Projection: every original link inherits the merged probability.
  ASSERT_EQ(r.original_link_prob.size(), 4u);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_EQ(r.merged_of[e], 0u);
    EXPECT_NEAR(r.original_link_prob[e], path_congested, 1e-6);
  }
}

TEST(MergedInference, SingletonSetsStillMergeSerialChains) {
  // Serial links are indistinguishable no matter the declared correlation:
  // with singleton sets each intermediate node still has its whole ingress
  // (one link) in one cell and its whole egress in one cell.
  auto sys = chain_system(3, /*one_correlation_set=*/false);
  auto model = corr::make_independent({0.1, 0.2, 0.05});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);

  const MergedInferenceResult r =
      infer_on_merged(sys.graph, sys.paths, sys.sets, oracle);
  EXPECT_GE(r.transform.merge_rounds, 1u);
  ASSERT_EQ(r.transform.graph.link_count(), 1u);
  EXPECT_NEAR(r.original_link_prob[1], 1.0 - oracle.good_prob(0), 1e-6);
}

TEST(MergedInference, SingletonSetsAreNoOpOnBranchingTopology) {
  // Figure 1(a) under singleton sets: node b's ingress spans two cells, so
  // nothing merges and the pipeline degenerates to plain inference on the
  // original links.
  auto sys = figure_1a();
  const corr::CorrelationSets singles = corr::CorrelationSets::singletons(4);
  auto model = corr::make_independent({0.3, 0.25, 0.15, 0.4});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);

  const MergedInferenceResult r =
      infer_on_merged(sys.graph, sys.paths, singles, oracle);
  EXPECT_EQ(r.transform.merge_rounds, 0u);
  ASSERT_EQ(r.transform.graph.link_count(), 4u);
  for (graph::LinkId e = 0; e < 4; ++e) {
    ASSERT_EQ(r.transform.composition[e].size(), 1u);
    // Ids survive 1:1: each original link is its merged link's sole member.
    EXPECT_EQ(r.transform.composition[r.merged_of[e]][0], e);
    EXPECT_NEAR(r.original_link_prob[e], model->marginal(e), 1e-5);
  }
}

TEST(MergedInference, SinglePathSystemIsOneEquation) {
  // Degenerate shard shape: a single path. The merged system has exactly
  // one link and one (single-path) equation; no pair harvest exists.
  auto sys = chain_system(2, /*one_correlation_set=*/true);
  auto model = corr::make_independent({0.12, 0.08});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);

  const MergedInferenceResult r =
      infer_on_merged(sys.graph, sys.paths, sys.sets, oracle);
  ASSERT_EQ(r.transform.graph.link_count(), 1u);
  EXPECT_EQ(r.inference.system.n2, 0u) << "no pair equations on one path";
  EXPECT_EQ(r.inference.system.rank, 1u);
  EXPECT_NEAR(r.original_link_prob[0], 1.0 - oracle.good_prob(0), 1e-6);
}

TEST(MergedInference, RankDeficientMeasurementLeavesLinkUnconstrained) {
  // e4 congested with probability 1: path P3 is never good, so every
  // equation touching it is unusable and the system goes rank-deficient.
  // The pipeline must not throw. Per-link recovery on the surviving links
  // is no longer identifiable (only P1/P2 remain, and the {e1,e2} set term
  // absorbs the pair equation), but the fitted solution must still
  // reproduce the usable path observables exactly, and the link with no
  // usable evidence must settle at the solver's zero, not garbage.
  auto sys = figure_1a();
  corr::SetDistribution d0;  // {e1,e2}
  d0.prob = {0.65, 0.10, 0.05, 0.20};
  corr::SetDistribution d1;  // {e3}
  d1.prob = {0.85, 0.15};
  corr::SetDistribution d2;  // {e4}: always congested
  d2.prob = {0.0, 1.0};
  const corr::JointTableModel model(
      sys.sets, std::vector<corr::SetDistribution>{d0, d1, d2});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(model, cov);
  ASSERT_EQ(oracle.good_prob(2), 0.0) << "P3 must be always congested";

  const MergedInferenceResult r =
      infer_on_merged(sys.graph, sys.paths, sys.sets, oracle);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_GE(r.original_link_prob[e], 0.0);
    EXPECT_LE(r.original_link_prob[e], 1.0);
  }
  // The usable single-path equations are consistent (the truth satisfies
  // them), so the NNLS fit is zero-residual: the estimated good
  // probability of P1 and P2 matches the oracle exactly.
  const auto fitted_good = [&](std::size_t path) {
    double good = 1.0;
    for (graph::LinkId e : sys.paths[path].links()) {
      good *= 1.0 - r.original_link_prob[e];
    }
    return good;
  };
  EXPECT_NEAR(fitted_good(0), oracle.good_prob(0), 1e-5);
  EXPECT_NEAR(fitted_good(1), oracle.good_prob(1), 1e-5);
  // The unconstrained column cannot be estimated; it reports 0 (no
  // evidence of congestion in the solvable subsystem), not garbage.
  EXPECT_EQ(r.inference.congestion_prob[3], 0.0);
}

TEST(MergedInference, RejectsMismatchedPartition) {
  auto sys = chain_system(3, true);
  const corr::CorrelationSets wrong = corr::CorrelationSets::singletons(2);
  auto model = corr::make_independent({0.1, 0.1, 0.1});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  EXPECT_THROW(infer_on_merged(sys.graph, sys.paths, wrong, oracle), Error);
}

}  // namespace
}  // namespace tomo::core
