// Differential suite for the fast equation-harvest paths.
//
// The harvest has three "fast" layers — EmpiricalMeasurement's bitmask
// kernels, the correlation-set signature precheck (core::PairPrecheck),
// and the rank sweep skipped for a pair whose shared links an earlier
// pair's sweep already covered. These tests pin them against references:
// reference::build_equations (a sequential build that sweeps every usable
// correlation-free pair, over the scalar reference::ScalarMeasurement)
// must accept identical equations (links, paths, bitwise-equal right-hand
// sides) with identical drop counters across every registry scenario,
// random seeds and option variations; and the precheck's verdict must
// equal a scan of the materialized union for every eligible path pair. Any
// divergence is an exactness bug, not a tolerance question, so
// comparisons are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "core/equations.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "reference/equations.hpp"
#include "reference/observations.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tomo::core {
namespace {

struct PreparedScenario {
  ScenarioInstance inst;
  graph::CoverageIndex coverage;
  sim::SimulationResult sim_result;
  // Scalar copy of the snapshots, for the reference measurement.
  reference::PathObservations observations;
};

PreparedScenario prepare(ScenarioConfig config, std::uint64_t sim_seed,
                         std::size_t snapshots = 300) {
  ScenarioInstance inst = build_scenario(config);
  graph::CoverageIndex coverage(inst.graph, inst.paths);
  sim::SimulatorConfig sc;
  sc.snapshots = snapshots;
  sc.packets_per_path = 500;
  sc.seed = sim_seed;
  sim::SimulationResult sim_result =
      sim::simulate(inst.graph, inst.paths, *inst.truth, sc);
  reference::PathObservations observations =
      reference::to_observations(sim_result.measurement);
  return PreparedScenario{std::move(inst), std::move(coverage),
                          std::move(sim_result), std::move(observations)};
}

void expect_identical(const EquationSystem& a, const EquationSystem& b,
                      const std::string& what) {
  ASSERT_EQ(a.equations.size(), b.equations.size()) << what;
  for (std::size_t i = 0; i < a.equations.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.equations[i].links, b.equations[i].links))
        << what << ": equation " << i;
    EXPECT_TRUE(std::ranges::equal(a.equations[i].paths, b.equations[i].paths))
        << what << ": equation " << i;
    // Bitwise equality: the fast paths must perform the same arithmetic.
    EXPECT_EQ(a.equations[i].y, b.equations[i].y)
        << what << ": equation " << i;
  }
  EXPECT_EQ(a.link_count, b.link_count) << what;
  EXPECT_EQ(a.n1, b.n1) << what;
  EXPECT_EQ(a.n2, b.n2) << what;
  EXPECT_EQ(a.rank, b.rank) << what;
  EXPECT_EQ(a.dropped_correlated, b.dropped_correlated) << what;
  EXPECT_EQ(a.dropped_unusable, b.dropped_unusable) << what;
  EXPECT_EQ(a.dropped_dependent, b.dropped_dependent) << what;
  EXPECT_EQ(a.pair_candidates_tried, b.pair_candidates_tried) << what;
}

/// Reference build: the sequential sweep-every-pair harvest over the
/// scalar measurement.
EquationSystem reference_build(const PreparedScenario& p,
                               const corr::CorrelationSets& sets,
                               const EquationBuildOptions& options) {
  const reference::ScalarMeasurement scalar(p.observations);
  return reference::build_equations(p.coverage, sets, scalar, options);
}

class RegistryDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryDifferential, FastPathsMatchReferenceExactly) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0xd1ff;
  const PreparedScenario p = prepare(config, 0xd1ff00);

  const EquationSystem ref = reference_build(p, p.inst.declared_sets, {});
  const sim::EmpiricalMeasurement fast(p.sim_result.measurement);
  const EquationSystem sys =
      build_equations(p.coverage, p.inst.declared_sets, fast);
  expect_identical(sys, ref, GetParam());
}

/// The precheck against its definition: for every pair of eligible paths
/// (each individually correlation-free), the signature verdict given the
/// pair's shared-link count |a ∩ b| equals CorrelationSets::correlation_free
/// on the materialized sorted union.
TEST_P(RegistryDifferential, SignaturePrecheckIsExact) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x9ec4;
  const ScenarioInstance inst = build_scenario(config);
  const graph::CoverageIndex coverage(inst.graph, inst.paths);
  const corr::CorrelationSets& sets = inst.declared_sets;

  std::vector<std::uint8_t> eligible(coverage.path_count(), 0);
  std::vector<graph::PathId> eligible_paths;
  for (graph::PathId p = 0; p < coverage.path_count(); ++p) {
    if (sets.correlation_free(coverage.sorted_links_of(p))) {
      eligible[p] = 1;
      eligible_paths.push_back(p);
    }
  }
  const PairPrecheck precheck(sets, coverage, eligible);

  std::vector<graph::LinkId> links, shared;
  for (std::size_t i = 0; i < eligible_paths.size(); ++i) {
    for (std::size_t j = i + 1; j < eligible_paths.size(); ++j) {
      const graph::PathId p = eligible_paths[i], q = eligible_paths[j];
      const auto& a = coverage.sorted_links_of(p);
      const auto& b = coverage.sorted_links_of(q);
      links.clear();
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(links));
      shared.clear();
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(shared));
      ASSERT_EQ(precheck.correlation_free(p, q, shared.size()),
                sets.correlation_free(links))
          << GetParam() << ": paths " << p << ", " << q;
    }
  }
}

std::vector<std::string> registry_names() {
  return ScenarioCatalog::instance().names();
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryDifferential,
    ::testing::ValuesIn(registry_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(EquationsFast, BitsetCacheMatchesScalarCountsEverywhere) {
  ScenarioConfig config;
  config.topology = TopologyKind::kWaxman;
  config.vantage_points = 10;
  config.seed = 21;
  const PreparedScenario p = prepare(config, 7);
  const sim::EmpiricalMeasurement fast(p.sim_result.measurement);
  const reference::ScalarMeasurement scalar(p.observations);
  const std::size_t n = p.observations.path_count();
  for (graph::PathId a = 0; a < n; ++a) {
    ASSERT_EQ(fast.good_prob(a), scalar.good_prob(a)) << "path " << a;
    for (graph::PathId b = 0; b < n; ++b) {
      ASSERT_EQ(fast.pair_good_prob(a, b), scalar.pair_good_prob(a, b))
          << "pair " << a << "," << b;
    }
  }
}

TEST(EquationsFast, RandomTopologiesSeedsAndOptionVariations) {
  Rng rng(0xfa57);
  for (int round = 0; round < 4; ++round) {
    ScenarioConfig config;
    config.topology =
        round % 2 == 0 ? TopologyKind::kWaxman : TopologyKind::kBarabasiAlbert;
    config.routers = 60 + 20 * round;
    config.vantage_points = 8 + 2 * round;
    config.cluster_size = 3 + round;
    config.seed = rng.below(1u << 30);
    const PreparedScenario p = prepare(config, rng.below(1u << 30));
    const sim::EmpiricalMeasurement fast(p.sim_result.measurement);

    std::vector<EquationBuildOptions> variations(3);
    variations[1].use_pairs = false;
    variations[2].max_pair_equations = 25;
    for (std::size_t v = 0; v < variations.size(); ++v) {
      const EquationSystem ref =
          reference_build(p, p.inst.declared_sets, variations[v]);
      const EquationSystem sys = build_equations(
          p.coverage, p.inst.declared_sets, fast, variations[v]);
      expect_identical(sys, ref,
                       "round " + std::to_string(round) + " variation " +
                           std::to_string(v));
    }
  }
}

/// Few snapshots of heavy congestion leave many pairs with no snapshot in
/// which both paths are good. An unusable pair is never swept, so its
/// shared links must not count as swept: a later usable pair with the same
/// shared links can still raise the rank.
TEST(EquationsFast, UnusablePairsMatchReference) {
  Rng rng(0x0bad);
  std::size_t unusable_pairs = 0;
  for (int round = 0; round < 6; ++round) {
    ScenarioConfig config;
    config.topology =
        round % 2 == 0 ? TopologyKind::kWaxman : TopologyKind::kPlanetLab;
    config.vantage_points = 10 + round;
    config.congested_fraction = 0.5;
    config.seed = rng.below(1u << 30);
    const PreparedScenario p = prepare(config, rng.below(1u << 30), 12);
    const sim::EmpiricalMeasurement fast(p.sim_result.measurement);
    for (const corr::CorrelationSets& sets :
         {p.inst.declared_sets,
          corr::CorrelationSets::singletons(p.coverage.link_count())}) {
      const EquationSystem ref = reference_build(p, sets, {});
      std::vector<CandidatePaths> unusable;
      const EquationSystem sys =
          build_equations(p.coverage, sets, fast, {}, &unusable);
      unusable_pairs += std::ranges::count_if(
          unusable, [](CandidatePaths c) { return c.first != c.second; });
      expect_identical(sys, ref,
                       "round " + std::to_string(round) + " sets=" +
                           std::to_string(sets.set_count()));
    }
  }
  EXPECT_GT(unusable_pairs, 0u);
}

TEST(EquationsFast, SingletonStructureShortCircuitMatchesReference) {
  ScenarioConfig config;
  config.topology = TopologyKind::kWaxman;
  config.vantage_points = 10;
  config.seed = 5;
  const PreparedScenario p = prepare(config, 11);
  const corr::CorrelationSets singles =
      corr::CorrelationSets::singletons(p.coverage.link_count());
  const EquationSystem ref = reference_build(p, singles, {});
  const sim::EmpiricalMeasurement fast(p.sim_result.measurement);
  const EquationSystem sys = build_equations(p.coverage, singles, fast);
  expect_identical(sys, ref, "singleton structure");
  EXPECT_EQ(sys.dropped_correlated, 0u);
}

}  // namespace
}  // namespace tomo::core
