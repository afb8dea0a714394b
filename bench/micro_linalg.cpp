// Microbenchmarks for the linear-algebra substrate.
#include <benchmark/benchmark.h>

#include <map>
#include <stdexcept>

#include "core/equations.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "linalg/qr.hpp"
#include "linalg/rank_tracker.hpp"
#include "linalg/simplex.hpp"
#include "linalg/solvers.hpp"
#include "linalg/updatable_cholesky.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace tomo;
using namespace tomo::linalg;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = rng.uniform(-1, 1);
    }
  }
  return a;
}

void BM_QrLeastSquares(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = random_matrix(n + 10, n, rng);
  Vector b(n + 10);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(least_squares(a, b));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QrLeastSquares)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_RankTrackerSparseRows(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  // Pre-generate sparse candidate rows resembling path-incidence vectors.
  std::vector<std::vector<std::size_t>> rows;
  for (std::size_t i = 0; i < dim * 2; ++i) {
    std::vector<std::size_t> ones =
        rng.sample_without_replacement(dim, 8 + rng.below(8));
    rows.push_back(std::move(ones));
  }
  for (auto _ : state) {
    RankTracker tracker(dim);
    std::size_t accepted = 0;
    for (const auto& ones : rows) {
      accepted += tracker.try_add_ones(ones) ? 1 : 0;
      if (tracker.full_rank()) break;
    }
    benchmark::DoNotOptimize(accepted);
  }
}
BENCHMARK(BM_RankTrackerSparseRows)->Arg(64)->Arg(128)->Arg(256);

// ---- NNLS on real registry equation systems -----------------------------
//
// The solve is the inference hot path at mesh scale, so it is measured on
// harvested systems, not synthetic dense ones:
//   arg 0 — waxman-bursty at test (shrink) scale, ~260 links
//   arg 1 — waxman-full at test scale, ~250 links / ~230 paths
//   arg 2 — waxman-full at full registry scale (~870 paths, ~870 links)

struct RegistrySystem {
  core::EquationSystem system;
};

const RegistrySystem& registry_system(std::int64_t scale) {
  static std::map<std::int64_t, RegistrySystem> cache;
  const auto it = cache.find(scale);
  if (it != cache.end()) return it->second;

  core::ScenarioConfig config =
      core::ScenarioCatalog::instance()
          .at(scale == 0 ? "waxman-bursty" : "waxman-full")
          .config;
  if (scale < 2) config = core::shrink_for_tests(config);
  config.seed = 0xbe7c;
  const core::ScenarioInstance inst = core::build_scenario(config);
  const graph::CoverageIndex coverage(inst.graph, inst.paths);
  sim::SimulatorConfig sc;
  sc.snapshots = scale < 2 ? 400 : 2000;
  sc.packets_per_path = scale < 2 ? 600 : 4000;
  sc.seed = 0xbe7c00;
  auto simr = sim::simulate(inst.graph, inst.paths, *inst.truth, sc);
  const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
  RegistrySystem prepared;
  prepared.system =
      core::build_equations(coverage, inst.declared_sets, meas);
  return cache.emplace(scale, std::move(prepared)).first->second;
}

void BM_NnlsRegistry(benchmark::State& state) {
  const RegistrySystem& prepared = registry_system(state.range(0));
  SolverOptions options;  // defaults: nnls
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_log_system(core::sparse_view(prepared.system), options));
  }
}
BENCHMARK(BM_NnlsRegistry)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// ---- The NNLS passive-set factor, one edit at a time -------------------
//
// Argument 0 is a real factor: waxman-full's point active set (the
// registry system of BM_NnlsRegistry arg 2; 475 columns, so k = 474 and
// one to append), whose L is 71% exact zeros below the diagonal, as the
// bootstrap's replicates see it. Any other
// argument k is a dense factor of the first k columns of G = A^T A + I for
// a sparse random A seeded from k (no exact zeros in L): ~160 is
// batch-registry's mean solve, ~420 a bootstrap-waxfull replicate's, ~1400
// a monolithic hier-10k's. Nothing about either matrix is known at
// compile time.

/// G as a dense column-major array plus its factor over columns [0, k).
struct FactorFixture {
  std::size_t k = 0;
  std::vector<double> g;  // (k + 1) x (k + 1): one column spare to append
  UpdatableCholesky chol;

  Vector cross(std::size_t j, std::size_t size) const {
    const double* col = g.data() + j * (k + 1);
    return Vector(col, col + size);
  }
  double diag(std::size_t j) const { return g[j * (k + 1) + j]; }
  /// An NNLS-shaped right-hand side: the first `size` entries of a fixed c.
  Vector rhs(std::size_t size) const {
    Vector c(size);
    for (std::size_t i = 0; i < size; ++i) c[i] = 1.0 + 0.25 * diag(i);
    return c;
  }
};

/// G(P, P) of waxman-full's converged NNLS support, in support order.
std::vector<double> registry_gram(std::size_t& n) {
  const core::EquationSystem& system = registry_system(2).system;
  GramSystem gs;
  accumulate_gram(gs, core::sparse_view(system), 1);
  const std::vector<std::size_t> support = nnls_gram(gs).active_set;
  n = support.size();
  std::vector<double> g(n * n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      g[j * n + i] = gs.gram(support[i], support[j]);
    }
  }
  return g;
}

std::vector<double> dense_gram(std::size_t n) {
  std::vector<double> g(n * n, 0.0);
  Rng rng(0x5eedULL * (n - 1));
  for (std::size_t r = 0; r < 2 * n; ++r) {
    const std::vector<std::size_t> ones = rng.sample_without_replacement(n, 8);
    const double weight = rng.uniform(0.5, 2.0);
    for (const std::size_t i : ones) {
      for (const std::size_t j : ones) g[j * n + i] += weight * weight;
    }
  }
  for (std::size_t j = 0; j < n; ++j) g[j * n + j] += 1.0;
  return g;
}

const FactorFixture& factor_fixture(std::int64_t arg) {
  static std::map<std::int64_t, FactorFixture> cache;
  const auto it = cache.find(arg);
  if (it != cache.end()) return it->second;
  FactorFixture f;
  std::size_t n = static_cast<std::size_t>(arg) + 1;
  f.g = arg == 0 ? registry_gram(n) : dense_gram(n);
  f.k = n - 1;
  for (std::size_t j = 0; j < f.k; ++j) {
    if (!f.chol.append(f.cross(j, j), f.diag(j))) {
      throw std::runtime_error("factor fixture: dependent column");
    }
  }
  return cache.emplace(arg, std::move(f)).first->second;
}

/// A cold solve: the two right-hand sides differ in their first entry, so
/// every call redoes the whole forward substitution.
void BM_UpdatableCholeskySolve(benchmark::State& state) {
  const FactorFixture& f = factor_fixture(state.range(0));
  UpdatableCholesky chol = f.chol;
  Vector rhs[2] = {f.rhs(f.k), f.rhs(f.k)};
  rhs[1][0] += 1.0;
  std::size_t flip = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chol.solve(rhs[flip ^= 1]));
  }
}
BENCHMARK(BM_UpdatableCholeskySolve)->Arg(0)->Arg(160)->Arg(420)->Arg(1400);

/// The NNLS inner loop's common case: a solve right after an append, on
/// the appended prefix of the previous solve's rhs. The append, and the
/// remove that restores the factor, are outside the timed region.
void BM_UpdatableCholeskySolveAfterAppend(benchmark::State& state) {
  const FactorFixture& f = factor_fixture(state.range(0));
  UpdatableCholesky chol = f.chol;
  const Vector cross = f.cross(f.k, f.k);
  const Vector rhs = f.rhs(f.k + 1);
  benchmark::DoNotOptimize(chol.solve(f.rhs(f.k)));
  for (auto _ : state) {
    state.PauseTiming();
    chol.append(cross, f.diag(f.k));
    state.ResumeTiming();
    benchmark::DoNotOptimize(chol.solve(rhs));
    state.PauseTiming();
    chol.remove(f.k);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_UpdatableCholeskySolveAfterAppend)
    ->Arg(0)
    ->Arg(160)
    ->Arg(420)
    ->Arg(1400);

/// One append of column k, then the O(k) remove of that last column that
/// restores the factor for the next iteration.
void BM_UpdatableCholeskyAppend(benchmark::State& state) {
  const FactorFixture& f = factor_fixture(state.range(0));
  UpdatableCholesky chol = f.chol;
  const Vector cross = f.cross(f.k, f.k);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chol.append(cross, f.diag(f.k)));
    benchmark::ClobberMemory();
    chol.remove(f.k);
  }
}
BENCHMARK(BM_UpdatableCholeskyAppend)->Arg(0)->Arg(160)->Arg(420)->Arg(1400);

/// One remove of the middle column; the factor is restored by a copy
/// outside the timed region.
void BM_UpdatableCholeskyRemove(benchmark::State& state) {
  const FactorFixture& f = factor_fixture(state.range(0));
  UpdatableCholesky chol;
  for (auto _ : state) {
    state.PauseTiming();
    chol = f.chol;
    state.ResumeTiming();
    chol.remove(f.k / 2);
    benchmark::DoNotOptimize(chol);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_UpdatableCholeskyRemove)->Arg(0)->Arg(160)->Arg(420)->Arg(1400);

void BM_L1Regression(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const Matrix a = random_matrix(n + 5, n, rng);
  Vector b(n + 5);
  for (auto& v : b) v = rng.uniform(0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(l1_regression(a, b));
  }
}
BENCHMARK(BM_L1Regression)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
