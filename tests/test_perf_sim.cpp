// Perf-regression smoke for the batched snapshot simulator (ctest label:
// "perf").
//
// Simulates the registry's heaviest entry (waxman-full at paper scale:
// 2000 snapshots x 4000 packets/path) with the block-batched engine and
// times the simulation stage alone against a committed wall-clock budget.
// The budget is generous — CI containers are noisy and the same constant
// must hold across Debug/Release — so this is a tripwire against *gross*
// regressions: anything that reintroduces per-packet Bernoulli draws,
// per-snapshot allocation, or a serial bottleneck in the block fan-out
// lands well outside it. For scale: the batched engine runs one round in
// ~0.08 s Release on one core. Bit-exactness of the batched engine is
// enforced by the differential suite (test_sim_fast.cpp); relative cost
// is tracked by bench/micro_sim.cpp and the *_sim_seconds telemetry.
#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "sim/simulator.hpp"
#include "util/stopwatch.hpp"

namespace tomo::sim {
namespace {

#if defined(__SANITIZE_ADDRESS__)
#define TOMO_PERF_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TOMO_PERF_SANITIZED 1
#endif
#endif

// Committed budget for kRounds batched simulations at paper scale.
#ifdef TOMO_PERF_SANITIZED
constexpr double kBudgetSeconds = 20.0;
#else
constexpr double kBudgetSeconds = 5.0;
#endif
constexpr int kRounds = 3;

TEST(PerfSim, WaxmanFullBatchedSimulationStaysWithinBudget) {
  core::ScenarioConfig config =
      core::ScenarioCatalog::instance().at("waxman-full").config;
  config.seed = 42;
  const core::ScenarioInstance inst = core::build_scenario(config);
  ASSERT_GE(inst.paths.size(), 300u)
      << "waxman-full lost its paper-scale path density";

  SimulatorConfig sc;
  sc.snapshots = 2000;
  sc.packets_per_path = 4000;
  sc.seed = 7;

  std::size_t sink = 0;
  const Stopwatch timer;
  for (int round = 0; round < kRounds; ++round) {
    const auto result =
        simulate(inst.graph, inst.paths, *inst.truth, sc);
    sink += result.measurement.good_counts.empty()
                ? 0
                : result.measurement.good_counts.front();
  }
  const double seconds = timer.seconds();
  EXPECT_LT(seconds, kBudgetSeconds)
      << "batched simulation regressed: " << seconds << " s for "
      << kRounds << " rounds at " << inst.paths.size() << " paths x "
      << sc.snapshots << " snapshots (budget " << kBudgetSeconds << " s)";
  // Telemetry for the CI log; not an assertion. The sink defeats
  // dead-code elimination of the simulation loop.
  std::cout << "[perf] waxman-full batched sim: " << seconds << " s / "
            << kRounds << " rounds, " << inst.paths.size() << " paths ("
            << sink << ")\n";
}

}  // namespace
}  // namespace tomo::sim
