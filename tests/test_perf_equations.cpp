// Perf-regression smoke for the equation harvest (ctest label: "perf").
//
// Builds the registry's heaviest entry (waxman-dense-vps, uncapped at 40
// vantage points = 1560 ordered-pair paths) and times a few full harvests
// (correlation + independence structures) against a committed wall-clock
// budget. The budget is deliberately generous — CI containers are noisy
// and the same constant must hold across Debug/Release — so this tier is
// a tripwire against *gross* regressions: anything that reintroduces a
// superquadratic per-candidate cost (per-pair observation re-scans, dense
// O(rank x dim) elimination on every candidate, O(P^2) hash-set dedup at
// scale) lands in the seconds-to-minutes range here and fails in every
// build flavor. For scale: the streaming harvest runs this loop in
// ~0.06 s Release / ~2 s Debug+ASan; the full pre-PR-4 implementation
// took ~0.9 s Release / ~10 s Debug. Finer-grained exactness of each
// fast layer is enforced by the differential suite
// (test_equations_fast.cpp), and relative before/after cost is tracked by
// bench/micro_equations.cpp plus the *_harvest_seconds JSON telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/correlation_algorithm.hpp"
#include "core/equations.hpp"
#include "core/scenario_catalog.hpp"
#include "corr/identifiability.hpp"
#include "graph/coverage.hpp"
#include "reference/harvest_chain.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/stopwatch.hpp"

namespace tomo::core {
namespace {

#if defined(__SANITIZE_ADDRESS__)
#define TOMO_PERF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TOMO_PERF_SANITIZED 1
#endif
#endif

// Committed budget for kRounds x (correlation + independence) harvests.
#ifdef TOMO_PERF_SANITIZED
constexpr double kBudgetSeconds = 40.0;
#else
constexpr double kBudgetSeconds = 10.0;
#endif
constexpr int kRounds = 3;

TEST(PerfEquations, DenseVpsHarvestStaysWithinBudget) {
  ScenarioConfig config =
      ScenarioCatalog::instance().at("waxman-dense-vps").config;
  config.seed = 42;
  const ScenarioInstance inst = build_scenario(config);
  ASSERT_GE(inst.paths.size(), 1000u)
      << "waxman-dense-vps lost its uncapped vantage density";

  sim::SimulatorConfig sc;
  sc.snapshots = 2000;
  sc.packets_per_path = 4000;
  sc.seed = 7;
  const auto simr = sim::simulate(inst.graph, inst.paths, *inst.truth, sc);
  const graph::CoverageIndex coverage(inst.graph, inst.paths);
  const corr::CorrelationSets singles =
      corr::CorrelationSets::singletons(coverage.link_count());

  std::size_t sink = 0;
  const Stopwatch timer;
  for (int round = 0; round < kRounds; ++round) {
    const sim::EmpiricalMeasurement meas(simr.measurement);
    sink += build_equations(coverage, inst.declared_sets, meas)
                .equations.size();
    sink += build_equations(coverage, singles, meas).equations.size();
  }
  const double seconds = timer.seconds();
  EXPECT_GT(sink, 0u);
  EXPECT_LT(seconds, kBudgetSeconds)
      << "equation harvest regressed: " << seconds << " s for " << kRounds
      << " rounds at " << inst.paths.size() << " paths (budget "
      << kBudgetSeconds << " s)";
  // Telemetry for the CI log; not an assertion.
  std::cout << "[perf] waxman-dense-vps harvest: " << seconds << " s / "
            << kRounds << " rounds, " << inst.paths.size() << " paths, "
            << coverage.link_count() << " links\n";
}

// The §3.3 chain decides its demotion round from the round's single-path
// equations and harvests pairs once, on the final structure; the reference
// chain runs the pair phase in the discarded round too. On hier-2k, where
// the round fires, that pair phase is most of a build. The check is
// relative, both chains timed in one process (best of kChainRounds,
// interleaved), so it holds in every build flavor.
TEST(PerfEquations, DemotionChainBuildsPairsOnce) {
  constexpr int kChainRounds = 3;
  constexpr double kMinSpeedup = 1.3;

  ScenarioConfig config = ScenarioCatalog::instance().at("hier-2k").config;
  config.seed = 42;
  const ScenarioInstance inst = build_scenario(config);
  sim::SimulatorConfig sc;
  sc.snapshots = 1000;
  sc.seed = 7;
  const auto simr = sim::simulate(inst.graph, inst.paths, *inst.truth, sc);
  const graph::CoverageIndex coverage(inst.graph, inst.paths);
  const sim::EmpiricalMeasurement meas(simr.measurement);

  double fast = std::numeric_limits<double>::infinity();
  double slow = fast;
  std::size_t demoted = 0;
  for (int round = 0; round < kChainRounds; ++round) {
    const Stopwatch fast_timer;
    const RefinedHarvest got = harvest_refined_system(
        inst.graph, inst.paths, coverage, inst.declared_sets, meas, {});
    fast = std::min(fast, fast_timer.seconds());
    const Stopwatch slow_timer;
    const RefinedHarvest ref = reference::harvest_refined_system(
        inst.graph, inst.paths, coverage, inst.declared_sets, meas, {});
    slow = std::min(slow, slow_timer.seconds());
    ASSERT_EQ(got.system.equations.size(), ref.system.equations.size());
    ASSERT_EQ(got.refined_links, ref.refined_links);
    demoted = got.refined_links.size();
  }
  const std::vector<graph::LinkId> structural =
      corr::structurally_unidentifiable_links(inst.graph, inst.paths,
                                              inst.declared_sets);
  EXPECT_GT(demoted, structural.size())
      << "hier-2k no longer fires a demotion round";
  EXPECT_GE(slow, kMinSpeedup * fast)
      << "hier-2k harvest chain: " << fast << " s against the reference's "
      << slow << " s (" << slow / fast << "x; at least " << kMinSpeedup
      << "x expected)";
  std::cout << "[perf] hier-2k harvest chain: " << fast << " s, reference "
            << slow << " s (" << slow / fast << "x, " << demoted
            << " links demoted)\n";
}

}  // namespace
}  // namespace tomo::core
