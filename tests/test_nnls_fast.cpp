// Differential suite for the incremental NNLS solve path.
//
// The solver was rebuilt around a once-per-solve Gram system and an
// updatable Cholesky factor (linalg::nnls_gram); the historical
// per-iteration dense QR survives in test code as reference::nnls_qr.
// These tests pin the two engines against each other on every registry
// scenario's real equation system: the converged active sets must be
// identical and the solutions must agree to tight relative tolerance —
// and the sparse Gram pipeline (core sparse view -> parallel Gram build ->
// nnls_gram) must be bit-identical for any jobs value, the contract the
// CI byte-identity checks rely on. RegistryGramStorage pins the storage
// itself: G kept by exactly the nonzeros of the dense product.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/equations.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "linalg/nnls.hpp"
#include "linalg/solvers.hpp"
#include "reference/solvers.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"

namespace tomo::core {
namespace {

struct PreparedSystem {
  ScenarioInstance inst;
  EquationSystem correlation;   // declared correlation structure
  EquationSystem independence;  // singleton baseline structure
};

PreparedSystem prepare(ScenarioConfig config, std::uint64_t sim_seed) {
  PreparedSystem out{build_scenario(std::move(config)), {}, {}};
  const graph::CoverageIndex coverage(out.inst.graph, out.inst.paths);
  sim::SimulatorConfig sc;
  sc.snapshots = 300;
  sc.packets_per_path = 500;
  sc.seed = sim_seed;
  sim::SimulationResult simr =
      sim::simulate(out.inst.graph, out.inst.paths, *out.inst.truth, sc);
  const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
  out.correlation =
      build_equations(coverage, out.inst.declared_sets, meas);
  const corr::CorrelationSets singles =
      corr::CorrelationSets::singletons(coverage.link_count());
  out.independence = build_equations(coverage, singles, meas);
  return out;
}

linalg::GramSystem gram_of(const linalg::SparseSystemView& view,
                           std::size_t jobs) {
  linalg::GramSystem gs;
  linalg::accumulate_gram(gs, view, jobs);
  return gs;
}

std::vector<std::size_t> active_set(const linalg::Vector& x) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] != 0.0) out.push_back(j);
  }
  return out;
}

/// Incremental (sparse Gram pipeline, jobs 1 and 3) vs reference (dense
/// per-iteration QR) on one harvested system.
void expect_engines_agree(const EquationSystem& sys,
                          const std::string& what) {
  ASSERT_FALSE(sys.equations.empty()) << what;

  const linalg::LogSystemSolution ref =
      reference::solve_log_system_qr(sparse_view(sys));

  linalg::SolverOptions incremental;  // defaults: nnls
  incremental.jobs = 1;
  const linalg::LogSystemSolution inc =
      linalg::solve_log_system(sparse_view(sys), incremental);
  incremental.jobs = 3;
  const linalg::LogSystemSolution inc_parallel =
      linalg::solve_log_system(sparse_view(sys), incremental);

  // The parallel Gram build reduces every entry in row order regardless of
  // the worker count: bit-identical solutions, not merely close ones.
  EXPECT_EQ(inc.x, inc_parallel.x) << what << ": jobs must not change bits";

  // Same converged active set as the reference engine...
  EXPECT_EQ(active_set(inc.x), active_set(ref.x)) << what;

  // ...and the same solution to tight relative tolerance (the engines do
  // different arithmetic: Cholesky on the normal equations vs QR).
  double scale = 1.0;
  for (double v : ref.x) scale = std::max(scale, std::abs(v));
  for (std::size_t j = 0; j < ref.x.size(); ++j) {
    EXPECT_NEAR(inc.x[j], ref.x[j], 1e-8 * scale)
        << what << ": link " << j;
  }
  EXPECT_NEAR(inc.residual_norm2, ref.residual_norm2, 1e-6 * scale) << what;
}

class RegistrySolveDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySolveDifferential, IncrementalMatchesReference) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x50f7;
  const PreparedSystem p = prepare(config, 0x50f700);
  expect_engines_agree(p.correlation, GetParam() + " correlation");
  expect_engines_agree(p.independence, GetParam() + " independence");
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistrySolveDifferential,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(NnlsFast, WeightedSparseViewMatchesDenseWeighting) {
  ScenarioConfig config = shrink_for_tests(
      ScenarioCatalog::instance().at("waxman-bursty").config);
  config.seed = 0x3e1;
  PreparedSystem p = prepare(config, 0x3e100);
  const std::size_t samples = 300;

  // The sparse view's per-row weights must be the inverse standard
  // deviation of each estimate (delta method: Var(log p) ~= (1-p)/(p N),
  // floored at one pseudo-count), applied to the row and its rhs alike.
  const linalg::SparseSystemView view = sparse_view(p.correlation, samples);
  const double n = static_cast<double>(samples);
  ASSERT_EQ(view.rows.size(), p.correlation.equations.size());
  for (std::size_t i = 0; i < view.rows.size(); ++i) {
    const Equation& eq = p.correlation.equations[i];
    const double prob = std::exp(eq.y);
    const double weight =
        1.0 / std::sqrt(std::max((1.0 - prob) / (prob * n), 1.0 / (n * n)));
    ASSERT_EQ(view.rows[i].support_size, eq.links.size());
    EXPECT_EQ(view.rows[i].value, weight) << "equation " << i;
    EXPECT_EQ(view.rows[i].y, weight * eq.y) << "equation " << i;
  }

  // And the engines agree on the weighted system too.
  const linalg::LogSystemSolution ref = reference::solve_log_system_qr(view);
  const linalg::LogSystemSolution inc = linalg::solve_log_system(view);
  EXPECT_EQ(active_set(inc.x), active_set(ref.x));
  double scale = 1.0;
  for (double v : ref.x) scale = std::max(scale, std::abs(v));
  for (std::size_t j = 0; j < ref.x.size(); ++j) {
    EXPECT_NEAR(inc.x[j], ref.x[j], 1e-8 * scale) << "link " << j;
  }
}

/// The Gram storage contract on one harvested system: accumulate_gram
/// stores exactly the nonzeros of the dense product reference::make_gram
/// computes — every cell bitwise equal, no zero stored and no entry
/// missing — and jobs 1 and 3 give identical values and index arrays.
void expect_gram_matches_dense(const EquationSystem& sys,
                               const std::string& what) {
  ASSERT_FALSE(sys.equations.empty()) << what;
  // Dense reference: Gram of the negated system (b = -y).
  const reference::DenseSystem system = reference::densify(sparse_view(sys));
  linalg::Vector b(system.y.size());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = -system.y[i];
  const linalg::GramSystem dense = reference::make_gram(system.a, b);

  const linalg::GramSystem serial = gram_of(sparse_view(sys), 1);
  ASSERT_EQ(serial.gram.cols(), dense.gram.cols()) << what;
  for (std::size_t i = 0; i < dense.gram.cols(); ++i) {
    for (std::size_t j = 0; j < dense.gram.cols(); ++j) {
      ASSERT_EQ(serial.gram(i, j), dense.gram(i, j))
          << what << ": cell " << i << "," << j;
    }
  }
  EXPECT_EQ(serial.gram.nnz(), dense.gram.nnz())
      << what << ": stored entries vs dense nonzeros";
  EXPECT_EQ(serial.gram.offsets, dense.gram.offsets) << what;
  EXPECT_EQ(serial.gram.index, dense.gram.index) << what;
  EXPECT_EQ(serial.atb, dense.atb) << what;
  EXPECT_EQ(serial.btb, dense.btb) << what;

  const linalg::GramSystem parallel = gram_of(sparse_view(sys), 3);
  EXPECT_EQ(parallel.gram.offsets, serial.gram.offsets) << what << ": jobs 3";
  EXPECT_EQ(parallel.gram.index, serial.gram.index) << what << ": jobs 3";
  EXPECT_EQ(parallel.gram.values, serial.gram.values) << what << ": jobs 3";
  EXPECT_EQ(parallel.atb, serial.atb) << what << ": jobs 3";
  EXPECT_EQ(parallel.btb, serial.btb) << what << ": jobs 3";
}

class RegistryGramStorage : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryGramStorage, SparseGramMatchesDenseGramBitwise) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x9a;
  const PreparedSystem p = prepare(config, 0x9a00);
  expect_gram_matches_dense(p.correlation, GetParam() + " correlation");
  expect_gram_matches_dense(p.independence, GetParam() + " independence");
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryGramStorage,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// A column no row touches stores nothing, not even its diagonal, reads 0
/// everywhere, and is never admitted from a warm seed: seeded with it, the
/// solve reaches the cold optimum with that column's x at 0.
TEST(NnlsFast, UntouchedColumnStaysOutOfAWarmSolve) {
  const std::vector<std::vector<std::size_t>> supports = {
      {0, 1}, {1, 3}, {0}, {3}, {0, 1, 3}};
  const std::vector<double> ys = {-0.3, -0.5, -0.1, -0.4, -0.7};
  linalg::SparseSystemView view;
  view.cols = 4;
  for (std::size_t r = 0; r < supports.size(); ++r) {
    linalg::SparseRow row;
    row.support = supports[r].data();
    row.support_size = supports[r].size();
    row.y = ys[r];
    view.rows.push_back(row);
  }
  const linalg::GramSystem gs = gram_of(view, 1);
  constexpr std::size_t kUntouched = 2;
  EXPECT_EQ(gs.gram.offsets[kUntouched], gs.gram.offsets[kUntouched + 1]);
  for (std::size_t i = 0; i < view.cols; ++i) {
    EXPECT_EQ(gs.gram(i, kUntouched), 0.0) << "row " << i;
    EXPECT_EQ(gs.gram(kUntouched, i), 0.0) << "column " << i;
  }
  EXPECT_EQ(gs.atb[kUntouched], 0.0);

  const linalg::NnlsResult cold = linalg::nnls_gram(gs);
  ASSERT_TRUE(cold.converged);
  linalg::NnlsOptions options;
  options.warm_start = {kUntouched, 0, 1, 3};
  const linalg::NnlsResult warm = linalg::nnls_gram(gs, options);
  ASSERT_TRUE(warm.converged);
  EXPECT_EQ(warm.active_set, cold.active_set);
  EXPECT_EQ(warm.x[kUntouched], 0.0);
  for (std::size_t j = 0; j < cold.x.size(); ++j) {
    EXPECT_NEAR(warm.x[j], cold.x[j], 1e-12) << "column " << j;
  }
  EXPECT_NEAR(warm.residual_norm, cold.residual_norm, 1e-12);

  // The seeded factor admits what the inline warm-up admits, so a solve
  // that copies it is bitwise the warm solve.
  linalg::GramSystem seeded = gs;
  linalg::seed_warm_factor(seeded, options.warm_start);
  EXPECT_EQ(std::count(seeded.warm.passive.begin(), seeded.warm.passive.end(),
                       kUntouched),
            0);
  const linalg::NnlsResult copied = linalg::nnls_gram(seeded, options);
  EXPECT_EQ(copied.x, warm.x);
  EXPECT_EQ(copied.active_set, warm.active_set);
  EXPECT_EQ(copied.iterations, warm.iterations);
}

// ------------------------------------------------- NNLS warm start ----

/// Deliberately stale seed: the cold active set with every third column
/// dropped — what the previous window hands the next one after part of
/// the support shifts. (Injecting *arbitrary* extra columns is not tested
/// against x-equality here: the worm scenarios carry duplicate columns,
/// and seeding one twin instead of the other selects a different — equally
/// optimal — vertex of the degenerate face. WarmStartSurvivesJunkSeeds
/// covers injection on a well-posed problem.)
std::vector<std::size_t> perturb_seed(const std::vector<std::size_t>& cold) {
  std::vector<std::size_t> seed;
  for (std::size_t k = 0; k < cold.size(); ++k) {
    if (k % 3 != 2) seed.push_back(cold[k]);
  }
  return seed;
}

class RegistryWarmStart : public ::testing::TestWithParam<std::string> {};

/// Seeding the engine from the previous active set — exact or perturbed
/// — must converge to the same optimum as a cold solve, with the
/// refactorization telemetry staying bounded and the warm climb never
/// longer than the cold one.
///
/// "Same optimum" is graded: with the exact seed the same support and the
/// same x to solver tolerance; with a perturbed seed the same *fitted*
/// quantities (residual norm and G·x, which are unique over the optimal
/// set even when the system is rank-deficient — the worm scenarios carry
/// duplicate columns, so x itself can differ between equally optimal
/// vertices when the seed withholds one twin).
TEST_P(RegistryWarmStart, PerturbedSeedReachesTheColdOptimum) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x3a77;
  const PreparedSystem p = prepare(config, 0x3a7700);
  const linalg::GramSystem gs = gram_of(sparse_view(p.correlation), 1);

  const linalg::NnlsResult cold = linalg::nnls_gram(gs);
  ASSERT_TRUE(cold.converged) << GetParam();
  ASSERT_FALSE(cold.active_set.empty()) << GetParam();

  double scale = 1.0;
  for (double v : cold.x) scale = std::max(scale, std::abs(v));

  const auto gram_times = [&](const linalg::Vector& x) {
    linalg::Vector out(gs.gram.cols(), 0.0);
    for (std::size_t i = 0; i < gs.gram.cols(); ++i) {
      for (std::size_t j = 0; j < gs.gram.cols(); ++j) {
        out[i] += gs.gram(i, j) * x[j];
      }
    }
    return out;
  };
  const linalg::Vector cold_fit = gram_times(cold.x);

  linalg::NnlsOptions options;
  for (const bool exact_seed : {true, false}) {
    options.warm_start = exact_seed
                             ? cold.active_set
                             : perturb_seed(cold.active_set);
    const linalg::NnlsResult warm = linalg::nnls_gram(gs, options);
    const std::string what =
        GetParam() + (exact_seed ? " exact seed" : " perturbed seed");
    ASSERT_TRUE(warm.converged) << what;
    if (exact_seed) {
      EXPECT_EQ(warm.active_set, cold.active_set) << what;
      for (std::size_t j = 0; j < cold.x.size(); ++j) {
        EXPECT_NEAR(warm.x[j], cold.x[j], 1e-8 * scale)
            << what << ": column " << j;
      }
    }
    EXPECT_NEAR(warm.residual_norm, cold.residual_norm, 1e-8 * scale)
        << what;
    const linalg::Vector warm_fit = gram_times(warm.x);
    for (std::size_t i = 0; i < cold_fit.size(); ++i) {
      EXPECT_NEAR(warm_fit[i], cold_fit[i], 1e-6 * scale)
          << what << ": fitted component " << i;
    }
    // Telemetry: the factor edits stay condition-safe (no refactorize
    // storm) and the outer climb is no longer than the cold one.
    EXPECT_LE(warm.refactorizations, cold.refactorizations + 1) << what;
    EXPECT_LE(warm.iterations, cold.iterations) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryWarmStart,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(NnlsFast, WarmStartSurvivesJunkSeeds) {
  // A tiny well-posed problem; the seed mixes duplicates, out-of-range
  // columns, and the whole column space. Documented contract: a stale
  // seed is always safe, the optimum is unchanged.
  const linalg::Matrix a{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}};
  const linalg::Vector b{1.0, 2.0, 0.5, 3.0};
  const linalg::GramSystem gs = reference::make_gram(a, b);
  const linalg::NnlsResult cold = linalg::nnls_gram(gs);

  linalg::NnlsOptions options;
  options.warm_start = {2, 2, 0, 99, 1, 0};
  const linalg::NnlsResult warm = linalg::nnls_gram(gs, options);
  ASSERT_TRUE(warm.converged);
  EXPECT_EQ(warm.active_set, cold.active_set);
  for (std::size_t j = 0; j < cold.x.size(); ++j) {
    EXPECT_NEAR(warm.x[j], cold.x[j], 1e-12) << "column " << j;
  }
}

}  // namespace
}  // namespace tomo::core
