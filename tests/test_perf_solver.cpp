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
//
// A second case pins the memory side: one monolithic hier-10k trial
// (~5.2k links, so a densely stored Gram alone takes over 200 MB) must
// peak under 100 MB of resident memory now that G is stored by its
// nonzeros.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <iostream>

#include "core/equations.hpp"
#include "core/experiment.hpp"
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

// Committed budget for one monolithic hier-10k trial, and its peak-RSS
// ceiling (checked outside sanitizer builds, whose shadow memory is not
// the program's). Unlike the small case above, this trial is dominated
// by O(k^2) factor loops over ~1400 passive columns, which run ~6x slower
// unoptimized, so Debug builds get their own budget.
#if defined(TOMO_PERF_SANITIZED)
constexpr double kHier10kBudgetSeconds = 1200.0;
#elif defined(NDEBUG)
constexpr double kHier10kBudgetSeconds = 120.0;
#else
constexpr double kHier10kBudgetSeconds = 600.0;
#endif
constexpr double kHier10kPeakRssMb = 100.0;

/// Peak resident set of this process so far. ctest runs every discovered
/// case in its own process, so under ctest this is the case's own peak.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

TEST(PerfSolver, MonolithicHier10kTrialStaysUnder100MbPeakRss) {
  ScenarioConfig config = ScenarioCatalog::instance().at("hier-10k").config;
  config.seed = 42;
  const Stopwatch timer;
  const ScenarioInstance inst = build_scenario(config);
  ASSERT_GE(inst.graph.link_count(), 4'000u)
      << "hier-10k lost its link count";

  // tomo_scenarios' trial: simulate, then both algorithms' harvest and
  // solve on one Gram each, unsharded.
  ExperimentConfig experiment;
  experiment.sim.snapshots = 2000;
  experiment.sim.packets_per_path = 4000;
  experiment.sim.seed = 7;
  const ExperimentResult result = run_experiment(inst, experiment);
  const double seconds = timer.seconds();
  const double rss_mb = peak_rss_mb();

  ASSERT_EQ(result.correlation.congestion_prob.size(),
            inst.graph.link_count());
  ASSERT_EQ(result.independence.congestion_prob.size(),
            inst.graph.link_count());
  EXPECT_LT(seconds, kHier10kBudgetSeconds)
      << "monolithic hier-10k trial regressed: " << seconds
      << " s (budget " << kHier10kBudgetSeconds << " s)";
#ifndef TOMO_PERF_SANITIZED
  EXPECT_LT(rss_mb, kHier10kPeakRssMb)
      << "monolithic hier-10k trial peaked at " << rss_mb
      << " MB resident (ceiling " << kHier10kPeakRssMb
      << " MB): is a dense n x n buffer back on the solve path?";
#endif
  // Telemetry for the CI log; not an assertion.
  std::cout << "[perf] hier-10k monolithic trial: " << seconds << " s ("
            << result.sim_seconds << " s sim, "
            << result.correlation.solve_seconds << " + "
            << result.independence.solve_seconds << " s solve), "
            << rss_mb << " MB peak RSS, " << inst.graph.link_count()
            << " links, " << result.correlation.system.equations.size()
            << "+" << result.independence.system.equations.size()
            << " equations\n";
}

}  // namespace
}  // namespace tomo::core
