#include <gtest/gtest.h>

#include <limits>
#include <unordered_set>

#include "core/scenario.hpp"
#include "corr/identifiability.hpp"
#include "graph/coverage.hpp"
#include "util/error.hpp"

namespace tomo::core {
namespace {

ScenarioConfig small_brite() {
  ScenarioConfig config;
  config.topology = TopologyKind::kBrite;
  config.as_nodes = 40;
  config.as_endpoints = 10;
  config.seed = 5;
  return config;
}

ScenarioConfig small_planetlab() {
  ScenarioConfig config;
  config.topology = TopologyKind::kPlanetLab;
  config.routers = 80;
  config.vantage_points = 8;
  config.seed = 5;
  return config;
}

TEST(Scenario, BriteInstanceIsWellFormed) {
  const ScenarioInstance inst = build_scenario(small_brite());
  EXPECT_GT(inst.graph.link_count(), 0u);
  EXPECT_GT(inst.paths.size(), 0u);
  const graph::CoverageIndex cov(inst.graph, inst.paths);
  EXPECT_TRUE(cov.all_links_covered());
  EXPECT_EQ(inst.declared_sets.link_count(), inst.graph.link_count());
  EXPECT_EQ(inst.true_marginals.size(), inst.graph.link_count());
}

TEST(Scenario, PlanetLabInstanceIsWellFormed) {
  const ScenarioInstance inst = build_scenario(small_planetlab());
  EXPECT_GT(inst.graph.link_count(), 0u);
  const graph::CoverageIndex cov(inst.graph, inst.paths);
  EXPECT_TRUE(cov.all_links_covered());
}

TEST(Scenario, CongestedFractionIsHonoured) {
  auto config = small_brite();
  config.congested_fraction = 0.20;
  const ScenarioInstance inst = build_scenario(config);
  const double fraction =
      static_cast<double>(inst.congested_links.size()) /
      static_cast<double>(inst.graph.link_count());
  EXPECT_NEAR(fraction, 0.20, 0.05);
  // Non-congested links have zero marginal; congested ones are inside the
  // configured range (worm-free scenario).
  std::unordered_set<graph::LinkId> congested(inst.congested_links.begin(),
                                              inst.congested_links.end());
  for (graph::LinkId e = 0; e < inst.graph.link_count(); ++e) {
    if (congested.count(e)) {
      EXPECT_GE(inst.true_marginals[e], config.marginal_lo - 1e-9);
      EXPECT_LE(inst.true_marginals[e], config.marginal_hi + 1e-9);
    } else {
      EXPECT_NEAR(inst.true_marginals[e], 0.0, 1e-12);
    }
  }
}

TEST(Scenario, HighCorrelationClustersCongestion) {
  auto config = small_brite();
  config.level = CorrelationLevel::kHigh;
  config.congested_fraction = 0.15;
  const ScenarioInstance inst = build_scenario(config);
  // At least one correlation set must hold > 2 congested links.
  std::vector<std::size_t> per_set(inst.declared_sets.set_count(), 0);
  for (graph::LinkId e : inst.congested_links) {
    ++per_set[inst.declared_sets.set_of(e)];
  }
  EXPECT_GT(*std::max_element(per_set.begin(), per_set.end()), 2u);
}

TEST(Scenario, LooseCorrelationCapsCongestionPerSet) {
  auto config = small_brite();
  config.level = CorrelationLevel::kLoose;
  config.congested_fraction = 0.10;
  const ScenarioInstance inst = build_scenario(config);
  std::vector<std::size_t> per_set(inst.declared_sets.set_count(), 0);
  for (graph::LinkId e : inst.congested_links) {
    ++per_set[inst.declared_sets.set_of(e)];
  }
  EXPECT_LE(*std::max_element(per_set.begin(), per_set.end()), 2u);
}

TEST(Scenario, UnidentifiableInjectionReachesTarget) {
  auto config = small_brite();
  config.unidentifiable_fraction = 0.25;
  const ScenarioInstance inst = build_scenario(config);
  const double fraction =
      static_cast<double>(inst.unidentifiable_congested.size()) /
      static_cast<double>(inst.congested_links.size());
  EXPECT_GE(fraction, 0.15);  // at or near the target
}

TEST(Scenario, MislabeledLinksComeFromDistinctSets) {
  auto config = small_brite();
  config.mislabeled_fraction = 0.5;
  const ScenarioInstance inst = build_scenario(config);
  EXPECT_FALSE(inst.mislabeled_links.empty());
  // Worm targets are drawn from pairwise-distinct sets as far as the
  // congested population allows (high correlation clusters congestion into
  // few sets, so perfect distinctness is not always possible).
  std::unordered_set<std::size_t> sets_used;
  std::unordered_set<std::size_t> congested_sets;
  for (graph::LinkId e : inst.mislabeled_links) {
    sets_used.insert(inst.declared_sets.set_of(e));
  }
  for (graph::LinkId e : inst.congested_links) {
    congested_sets.insert(inst.declared_sets.set_of(e));
  }
  EXPECT_EQ(sets_used.size(),
            std::min(inst.mislabeled_links.size(), congested_sets.size()));
  // Worm targets are congested links.
  std::unordered_set<graph::LinkId> congested(inst.congested_links.begin(),
                                              inst.congested_links.end());
  for (graph::LinkId e : inst.mislabeled_links) {
    EXPECT_TRUE(congested.count(e));
  }
}

TEST(Scenario, WormRaisesTargetMarginals) {
  auto base_config = small_brite();
  const ScenarioInstance base = build_scenario(base_config);
  auto worm_config = base_config;
  worm_config.mislabeled_fraction = 0.5;
  worm_config.worm_rho = 0.4;
  const ScenarioInstance worm = build_scenario(worm_config);
  // Same topology/seed: worm targets must have higher marginals than the
  // configured cap would otherwise allow... at least rho.
  for (graph::LinkId e : worm.mislabeled_links) {
    EXPECT_GE(worm.true_marginals[e], 0.4 - 1e-9);
  }
}

TEST(Scenario, DeterministicInSeed) {
  const ScenarioInstance a = build_scenario(small_brite());
  const ScenarioInstance b = build_scenario(small_brite());
  EXPECT_EQ(a.congested_links, b.congested_links);
  EXPECT_EQ(a.true_marginals, b.true_marginals);
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto c1 = small_brite();
  auto c2 = small_brite();
  c2.seed = 6;
  const ScenarioInstance a = build_scenario(c1);
  const ScenarioInstance b = build_scenario(c2);
  EXPECT_NE(a.congested_links, b.congested_links);
}

TEST(Scenario, RejectsBadConfig) {
  auto config = small_brite();
  config.congested_fraction = 0.0;
  EXPECT_THROW(build_scenario(config), Error);
  config = small_brite();
  config.marginal_lo = 0.0;
  EXPECT_THROW(build_scenario(config), Error);
  // Every topology kind hands fabric_prob to a generator that rejects a
  // value outside [0,1] (the Bernoulli draw used to clamp it silently).
  for (TopologyKind kind :
       {TopologyKind::kBrite, TopologyKind::kPlanetLab, TopologyKind::kWaxman,
        TopologyKind::kBarabasiAlbert}) {
    for (double fabric_prob :
         {2.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
      config = small_planetlab();
      config.topology = kind;
      config.fabric_prob = fabric_prob;
      EXPECT_THROW(build_scenario(config), Error)
          << to_string(kind) << " " << fabric_prob;
    }
  }
}

}  // namespace
}  // namespace tomo::core
