// Perf-regression smoke for the NNLS solve path (ctest label: "perf").
//
// Builds the registry's heaviest entry (waxman-dense-vps, 40 vantage
// points = 1560 ordered-pair paths, ~840 links) and times a few full
// incremental solves — sparse view -> Gram build -> active-set loop over
// the updatable Cholesky factor — against a committed wall-clock budget.
// Like the harvest tier, the budget is a tripwire against *gross*
// regressions, generous enough for noisy CI containers and shared across
// Debug/Release: anything that reintroduces a per-iteration O(m k^2)
// refactorization (the pre-PR-5 dense QR per inner step took ~8 minutes
// per solve at this scale, vs ~0.2 s for the incremental engine) lands
// minutes over budget in every build flavor. Exactness of the engine is
// enforced by the differential suite (test_nnls_fast.cpp); isolated
// engine-vs-engine cost is tracked by bench/micro_linalg.cpp and the
// *_solve_seconds JSON telemetry.
#include <gtest/gtest.h>

#include <cmath>
#include <iostream>

#include "core/equations.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "linalg/solvers.hpp"
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

// Committed budget for kRounds x (correlation + independence) solves.
#ifdef TOMO_PERF_SANITIZED
constexpr double kBudgetSeconds = 60.0;
#else
constexpr double kBudgetSeconds = 15.0;
#endif
constexpr int kRounds = 3;

TEST(PerfSolver, DenseVpsNnlsSolveStaysWithinBudget) {
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
  const sim::EmpiricalMeasurement meas(simr.measurement);
  const corr::CorrelationSets singles =
      corr::CorrelationSets::singletons(coverage.link_count());
  const EquationSystem correlation =
      build_equations(coverage, inst.declared_sets, meas);
  const EquationSystem independence =
      build_equations(coverage, singles, meas);
  ASSERT_FALSE(correlation.equations.empty());
  ASSERT_FALSE(independence.equations.empty());

  double sink = 0.0;
  const Stopwatch timer;
  for (int round = 0; round < kRounds; ++round) {
    const auto corr_solution =
        linalg::solve_log_system(sparse_view(correlation));
    const auto ind_solution =
        linalg::solve_log_system(sparse_view(independence));
    sink += corr_solution.residual_norm2 + ind_solution.residual_norm2;
  }
  const double seconds = timer.seconds();
  EXPECT_TRUE(std::isfinite(sink));
  EXPECT_LT(seconds, kBudgetSeconds)
      << "NNLS solve regressed: " << seconds << " s for " << kRounds
      << " rounds at " << correlation.equations.size() << "+"
      << independence.equations.size() << " equations x "
      << coverage.link_count() << " links (budget " << kBudgetSeconds
      << " s)";
  // Telemetry for the CI log; not an assertion.
  std::cout << "[perf] waxman-dense-vps solve: " << seconds << " s / "
            << kRounds << " rounds, " << correlation.equations.size() << "+"
            << independence.equations.size() << " equations, "
            << coverage.link_count() << " links\n";
}

}  // namespace
}  // namespace tomo::core
