#include <gtest/gtest.h>

#include "core/localization.hpp"
#include "core/theorem_algorithm.hpp"
#include "corr/model_factory.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::core {
namespace {

using tomo::testing::figure_1a;
using tomo::testing::figure_1a_model;

// ------------------------------------------------------------- domain ----

TEST(LocalizationDomain, GoodPathsCertifyLinks) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  // Only P1 = {e1,e3} congested: P2,P3 good certify e2,e3,e4 good.
  const LocalizationDomain domain = build_domain(cov, {0});
  EXPECT_FALSE(domain.forced_good[0]);
  EXPECT_TRUE(domain.forced_good[1]);
  EXPECT_TRUE(domain.forced_good[2]);
  EXPECT_TRUE(domain.forced_good[3]);
  ASSERT_EQ(domain.candidates.size(), 1u);
  EXPECT_EQ(domain.candidates[0], (std::vector<graph::LinkId>{0}));
}

TEST(LocalizationDomain, AllCongestedLeavesEverythingOpen) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const LocalizationDomain domain = build_domain(cov, {0, 1, 2});
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_FALSE(domain.forced_good[e]);
  }
}

TEST(LocalizationDomain, RejectsBadPathIds) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  EXPECT_THROW(build_domain(cov, {17}), Error);
}

// ------------------------------------------------------- smallest set ----

TEST(SmallestSet, UniqueExplanationFound) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  // Only P1 congested => e1 is the only possible culprit.
  const LocalizationResult r = localize_smallest_set(cov, {0});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.congested_links, (std::vector<graph::LinkId>{0}));
}

TEST(SmallestSet, PrefersSharedLink) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  // P1 and P2 congested, P3 good: e3 alone explains both (e1+e2 would be
  // two links, and e2 is certified good by P3 anyway).
  const LocalizationResult r = localize_smallest_set(cov, {0, 1});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.congested_links, (std::vector<graph::LinkId>{2}));
}

TEST(SmallestSet, EmptyObservationMeansNoCongestion) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const LocalizationResult r = localize_smallest_set(cov, {});
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.congested_links.empty());
}

TEST(SmallestSet, DetectsInfeasibleObservation) {
  // Two paths over the same single link: one congested, one good is a
  // contradiction under Assumption 2.
  graph::Graph g;
  const auto a = g.add_node(), b = g.add_node();
  const auto e = g.add_link(a, b);
  std::vector<graph::Path> paths;
  paths.emplace_back(g, std::vector<graph::LinkId>{e});
  paths.emplace_back(g, std::vector<graph::LinkId>{e});
  const graph::CoverageIndex cov(g, paths);
  const LocalizationResult r = localize_smallest_set(cov, {0});
  EXPECT_FALSE(r.feasible);
}

// --------------------------------------------------------- greedy MAP ----

TEST(GreedyMap, ProbabilitiesBreakTies) {
  // Two parallel candidate links for a single congested path: MAP picks
  // the one with the higher congestion probability.
  graph::Graph g;
  const auto a = g.add_node(), b = g.add_node(), c = g.add_node();
  const auto e1 = g.add_link(a, b), e2 = g.add_link(b, c);
  std::vector<graph::Path> paths;
  paths.emplace_back(g, std::vector<graph::LinkId>{e1, e2});
  const graph::CoverageIndex cov(g, paths);
  {
    const auto r = localize_greedy_map(cov, {0}, {0.6, 0.1});
    EXPECT_EQ(r.congested_links, (std::vector<graph::LinkId>{e1}));
  }
  {
    const auto r = localize_greedy_map(cov, {0}, {0.1, 0.6});
    EXPECT_EQ(r.congested_links, (std::vector<graph::LinkId>{e2}));
  }
}

TEST(GreedyMap, HighProbabilityLinksAreIncluded) {
  // P1 and P2 congested; e1 has probability 0.9 (log-odds positive), so
  // the MAP includes it even though e3 alone would cover both paths: under
  // independence, P(e1 congested) = 0.9 makes {e1, e3} likelier than {e3}.
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const auto r = localize_greedy_map(cov, {0, 1}, {0.9, 0.0, 0.05, 0.0});
  EXPECT_EQ(r.congested_links, (std::vector<graph::LinkId>{0, 2}));
}

TEST(GreedyMap, LowProbabilityPrefersSharedExplanation) {
  // Same observation, but all probabilities low: the shared link e3 with
  // the better cost/coverage ratio explains both paths alone.
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const auto r = localize_greedy_map(cov, {0, 1}, {0.1, 0.0, 0.2, 0.0});
  EXPECT_EQ(r.congested_links, (std::vector<graph::LinkId>{2}));
}

TEST(GreedyMap, HandlesZeroProbabilityEstimates) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  // All estimates zero: clamping still lets the algorithm explain.
  const auto r = localize_greedy_map(cov, {0}, {0.0, 0.0, 0.0, 0.0});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.congested_links, (std::vector<graph::LinkId>{0}));
}

TEST(GreedyMap, ValidatesProbabilityVector) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  EXPECT_THROW(localize_greedy_map(cov, {0}, {0.5}), Error);
}

// ---------------------------------------------------------- exact MAP ----

TEST(ExactMap, UsesCorrelationInformation) {
  // Figure 1(a) with all paths congested. Feasible explanations include
  // {e1,e2}, {e1 or e3, e2 or e4} combinations... With the strong joint
  // P(e1,e2)=0.2, the MAP should favour explanations consistent with the
  // correlated pair over independent coincidences.
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const TheoremResult probs = run_theorem_algorithm(cov, sys.sets, oracle);
  const LocalizationResult r =
      localize_exact_map(cov, sys.sets, probs, {0, 1, 2});
  EXPECT_TRUE(r.feasible);
  // The chosen explanation must be feasible: cover all three paths.
  graph::PathIdSet covered = cov.covered_paths(r.congested_links);
  EXPECT_EQ(covered, (graph::PathIdSet{0, 1, 2}));
  // And it must be the global optimum: enumerate all link subsets and
  // check none has higher probability.
  auto state_prob = [&](std::uint32_t mask) {
    double prob = 1.0;
    // set 0 = {e1,e2} bits 0,1; set 1 = {e3} bit 2; set 2 = {e4} bit 3.
    prob *= probs.state_prob[0][mask & 3];
    prob *= probs.state_prob[1][(mask >> 2) & 1];
    prob *= probs.state_prob[2][(mask >> 3) & 1];
    return prob;
  };
  std::uint32_t chosen_mask = 0;
  for (graph::LinkId e : r.congested_links) chosen_mask |= 1u << e;
  for (std::uint32_t mask = 0; mask < 16; ++mask) {
    std::vector<graph::LinkId> links;
    for (graph::LinkId e = 0; e < 4; ++e) {
      if (mask & (1u << e)) links.push_back(e);
    }
    if (cov.covered_paths(links) != (graph::PathIdSet{0, 1, 2})) continue;
    EXPECT_LE(state_prob(mask), state_prob(chosen_mask) + 1e-12)
        << "mask " << mask;
  }
}

TEST(ExactMap, MatchesTruthOnUnambiguousSnapshots) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const TheoremResult probs = run_theorem_algorithm(cov, sys.sets, oracle);
  // Only P3 congested: e4 is the only feasible culprit (e2 would congest
  // P2 as well).
  const LocalizationResult r =
      localize_exact_map(cov, sys.sets, probs, {2});
  EXPECT_EQ(r.congested_links, (std::vector<graph::LinkId>{3}));
}

TEST(ExactMap, GuardsProblemSize) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const TheoremResult probs = run_theorem_algorithm(cov, sys.sets, oracle);
  EXPECT_THROW(localize_exact_map(cov, sys.sets, probs, {0}, 2), Error);
}

// -------------------------------------------------------------- score ----

TEST(LocalizationScoreTest, CountsCorrectly) {
  const std::vector<std::uint8_t> truth{1, 0, 1, 0};
  const LocalizationScore s = score_localization(truth, {0, 1});
  EXPECT_EQ(s.true_positives, 1u);
  EXPECT_EQ(s.false_positives, 1u);
  EXPECT_EQ(s.false_negatives, 1u);
  EXPECT_DOUBLE_EQ(s.detection_rate(), 0.5);
  EXPECT_DOUBLE_EQ(s.false_discovery_rate(), 0.5);
}

TEST(LocalizationScoreTest, DegenerateCases) {
  const LocalizationScore none =
      score_localization({0, 0}, std::vector<graph::LinkId>{});
  EXPECT_DOUBLE_EQ(none.detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(none.false_discovery_rate(), 0.0);
}

TEST(LocalizationEndToEnd, MapBeatsSmallestSetOnCorrelatedSnapshots) {
  // Simulate many snapshots of the correlated Figure 1(a) model and
  // compare cumulative detection of exact MAP vs smallest-set. When e1,e2
  // congest together (probability 0.2), smallest-set prefers the
  // single-link explanation {e3} for pattern {P1,P2}; the probability-
  // aware MAP knows the correlated pair is likelier.
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const TheoremResult probs = run_theorem_algorithm(cov, sys.sets, oracle);

  Rng rng(99);
  std::size_t map_correct = 0, smallest_correct = 0, snapshots = 0;
  std::vector<std::uint8_t> state(model->link_count());
  for (int n = 0; n < 400; ++n) {
    model->sample_block(rng, 1, state.data());
    graph::PathIdSet congested;
    for (graph::PathId p = 0; p < sys.paths.size(); ++p) {
      for (graph::LinkId e : sys.paths[p].links()) {
        if (state[e]) {
          congested.push_back(p);
          break;
        }
      }
    }
    ++snapshots;
    std::vector<graph::LinkId> truth_links;
    for (graph::LinkId e = 0; e < 4; ++e) {
      if (state[e]) truth_links.push_back(e);
    }
    const auto map_r = localize_exact_map(cov, sys.sets, probs, congested);
    const auto ss_r = localize_smallest_set(cov, congested);
    map_correct += (map_r.congested_links == truth_links) ? 1 : 0;
    smallest_correct += (ss_r.congested_links == truth_links) ? 1 : 0;
  }
  EXPECT_GE(map_correct, smallest_correct);
  EXPECT_GT(static_cast<double>(map_correct) /
                static_cast<double>(snapshots),
            0.6);
}

}  // namespace
}  // namespace tomo::core
