// Perf-regression smoke for the batched bootstrap engine (ctest label:
// "perf").
//
// Bootstraps the registry's heaviest entry (waxman-full at paper scale,
// 2000 snapshots x 4000 packets/path) and times the bootstrap stage alone
// against a committed wall-clock budget. The budget is generous — CI
// containers are noisy and the same constant must hold across
// Debug/Release — so this is a tripwire against *gross* regressions:
// anything that reintroduces per-bit resampling, a per-replicate equation
// re-harvest on stable support, or a cold NNLS solve per replicate lands
// well outside it. For scale: the batched engine runs one waxman-full
// replicate in ~30 ms Release on one core (the serial reference engine
// takes ~150 ms — it re-harvests and re-factors everything). Bit-exactness
// of the batched engine is enforced by the differential suite
// (test_bootstrap_fast.cpp); the engine-vs-engine cost ratio is tracked by
// fig1_tables --scenario telemetry (bootstrap_speedup).
#include <gtest/gtest.h>

#include <iostream>

#include "core/bootstrap.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
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

// Committed budget for kReplicates batched bootstrap replicates at paper
// scale (point estimate and harvest included).
#ifdef TOMO_PERF_SANITIZED
constexpr double kBudgetSeconds = 40.0;
#else
constexpr double kBudgetSeconds = 10.0;
#endif
constexpr std::size_t kReplicates = 60;

TEST(PerfBootstrap, WaxmanFullBatchedBootstrapStaysWithinBudget) {
  core::ScenarioConfig config =
      core::ScenarioCatalog::instance().at("waxman-full").config;
  config.seed = 42;
  const core::ScenarioInstance inst = core::build_scenario(config);
  ASSERT_GE(inst.paths.size(), 300u)
      << "waxman-full lost its paper-scale path density";
  const graph::CoverageIndex cov(inst.graph, inst.paths);

  sim::SimulatorConfig sc;
  sc.snapshots = 2000;
  sc.packets_per_path = 4000;
  sc.seed = 7;
  const auto simr = sim::simulate(inst.graph, inst.paths, *inst.truth, sc);

  BootstrapOptions options;  // batched engine, warm starts on
  options.replicates = kReplicates;
  options.seed = 0xbff;
  options.jobs = 1;

  const Stopwatch timer;
  const BootstrapResult r =
      bootstrap_congestion(inst.graph, inst.paths, cov, inst.declared_sets,
                           simr.measurement, options);
  const double seconds = timer.seconds();

  EXPECT_EQ(r.replicates + r.skipped, kReplicates);
  EXPECT_LT(seconds, kBudgetSeconds)
      << "batched bootstrap regressed: " << seconds << " s for "
      << kReplicates << " replicates at " << inst.paths.size()
      << " paths x " << sc.snapshots << " snapshots (budget "
      << kBudgetSeconds << " s)";
  // Telemetry for the CI log; not an assertion. On stable support the
  // fast path should carry essentially every replicate.
  std::cout << "[perf] waxman-full batched bootstrap: " << seconds
            << " s / " << kReplicates << " replicates, "
            << r.reharvested << " reharvested, " << r.skipped
            << " skipped\n";
}

}  // namespace
}  // namespace tomo::core
