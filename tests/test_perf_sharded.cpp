// Perf-regression smoke for the sharded inference path (ctest label:
// "perf").
//
// Runs the registry's 10k-AS hierarchical entry end to end — generation,
// snapshot simulation, capped shard planning, per-shard inference, and
// reconciliation — against a committed wall-clock budget. The acceptance
// bar for the sharded subsystem is a ≥10k-router scenario through
// `tomo_scenarios --sharded` in under 60 s single-socket; Release wall
// time is ~1 s on 4 cores, so the budget here is a gross-regression
// tripwire (a superlinear relapse in the hierarchical generator's fabric
// bookkeeping, an accidental monolithic Gram build, a serial shard loop)
// rather than a tight benchmark. The shard planner also has a relative
// check against its reference. Exactness of the sharded path is pinned by
// test_sharded_fast.cpp; this suite only watches the clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <limits>

#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "core/sharded_inference.hpp"
#include "graph/coverage.hpp"
#include "reference/shard_plan.hpp"
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

// The subsystem's acceptance budget, doubled under sanitizers (ASan's
// shadow memory roughly doubles the arithmetic-heavy stages).
#ifdef TOMO_PERF_SANITIZED
constexpr double kBudgetSeconds = 120.0;
#else
constexpr double kBudgetSeconds = 60.0;
#endif

TEST(PerfSharded, Hier10kEndToEndStaysWithinBudget) {
  const Stopwatch timer;

  ScenarioConfig config =
      ScenarioCatalog::instance().at("hier-10k").config;
  config.seed = 42;
  const ScenarioInstance inst = build_scenario(config);
  // The entry must stay internet-scale: ≥ 10k routers under the measured
  // links (three router segments per link) and ≥ 10k measured paths.
  ASSERT_GE(inst.paths.size(), 10'000u)
      << "hier-10k lost its path density";
  ASSERT_GE(inst.graph.link_count(), 4'000u);
  const graph::CoverageIndex coverage(inst.graph, inst.paths);

  sim::SimulatorConfig sc;
  sc.snapshots = 300;
  sc.packets_per_path = 400;
  sc.seed = 7;
  sc.jobs = 0;
  sim::SimulationResult sim_result =
      sim::simulate(inst.graph, inst.paths, *inst.truth, sc);

  ShardedOptions options;
  options.max_shard_paths = 400;
  options.jobs = 0;
  const ShardedInferenceResult result =
      infer_sharded(inst.graph, inst.paths, coverage, inst.declared_sets,
                    sim_result.measurement, options);
  const double seconds = timer.seconds();

  EXPECT_GT(result.plan.shards.size(), 4u)
      << "the cap stopped splitting the hub component";
  EXPECT_LT(seconds, kBudgetSeconds)
      << "sharded 10k-AS run regressed: " << seconds << " s end to end ("
      << result.plan.shards.size() << " shards, "
      << result.plan.shared_links << " shared links; budget "
      << kBudgetSeconds << " s)";
  std::cout << "[perf] hier-10k sharded: " << seconds << " s end to end, "
            << inst.paths.size() << " paths / " << inst.graph.link_count()
            << " links, " << result.plan.shards.size() << " shards ("
            << result.plan.shared_links << " shared, "
            << result.averaged_links << " averaged, "
            << result.resolved_links << " re-solved)\n";
}

// The shard plan builds each vantage cluster's link list once; the
// reference rebuilds it (gather, sort, de-duplicate) every time the grow
// loop scores the cluster. The check is relative, both planners timed in
// one process (best of kPlanRounds, interleaved), so it holds in every
// build flavor: Release reads ~10x, Debug ~11x and ASan ~9x.
TEST(PerfSharded, Hier10kPlanIsFourTimesFasterThanReference) {
  constexpr std::size_t kCap = 400;
  constexpr int kPlanRounds = 3;
  constexpr double kMinSpeedup = 4.0;

  ScenarioConfig config =
      ScenarioCatalog::instance().at("hier-10k").config;
  config.seed = 42;
  const ScenarioInstance inst = build_scenario(config);
  const graph::CoverageIndex coverage(inst.graph, inst.paths);

  double fast = std::numeric_limits<double>::infinity();
  double slow = fast;
  std::size_t shards = 0;
  for (int round = 0; round < kPlanRounds; ++round) {
    const Stopwatch fast_timer;
    const ShardPlan plan =
        plan_shards(inst.paths, coverage, inst.declared_sets, kCap);
    fast = std::min(fast, fast_timer.seconds());
    const Stopwatch slow_timer;
    const ShardPlan ref = reference::plan_shards(inst.paths, coverage,
                                                 inst.declared_sets, kCap);
    slow = std::min(slow, slow_timer.seconds());
    ASSERT_EQ(plan.shards.size(), ref.shards.size());
    ASSERT_EQ(plan.shared_links, ref.shared_links);
    shards = plan.shards.size();
  }
  EXPECT_GT(shards, 4u) << "the cap stopped splitting the hub component";
  EXPECT_GE(slow, kMinSpeedup * fast)
      << "hier-10k shard plan: " << fast << " s against the reference's "
      << slow << " s (" << slow / fast << "x; at least " << kMinSpeedup
      << "x expected)";
  std::cout << "[perf] hier-10k plan_shards (cap " << kCap << "): " << fast
            << " s, reference " << slow << " s (" << slow / fast << "x, "
            << shards << " shards)\n";
}

}  // namespace
}  // namespace tomo::core
