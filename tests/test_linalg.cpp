#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "linalg/irls.hpp"
#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"
#include "linalg/qr.hpp"
#include "linalg/rank_tracker.hpp"
#include "linalg/simplex.hpp"
#include "linalg/solvers.hpp"
#include "linalg/updatable_cholesky.hpp"
#include "reference/cholesky.hpp"
#include "reference/solvers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::linalg {
namespace {

// ------------------------------------------------------------- matrix ----

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, AppendRowGrowsAndValidates) {
  Matrix m;
  m.append_row({1, 2, 3});
  m.append_row({4, 5, 6});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_THROW(m.append_row({1}), Error);
}

TEST(Matrix, MultiplyAndTranspose) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const Vector y = m.multiply({1, 1});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
  const Vector z = m.multiply_transposed({1, 1, 1});
  EXPECT_DOUBLE_EQ(z[0], 9.0);
  EXPECT_DOUBLE_EQ(z[1], 12.0);
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_DOUBLE_EQ(t(0, 2), 5.0);
}

TEST(Matrix, Norms) {
  EXPECT_DOUBLE_EQ(norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm1({-1, 2, -3}), 6.0);
  EXPECT_DOUBLE_EQ(norm_inf({-1, 2, -3}), 3.0);
  EXPECT_DOUBLE_EQ(dot({1, 2}, {3, 4}), 11.0);
}

TEST(Matrix, ResidualComputation) {
  Matrix a{{1, 0}, {0, 1}};
  const Vector r = residual(a, {1, 2}, {3, 3});
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
}

// ----------------------------------------------------------------- QR ----

TEST(Qr, SolvesSquareSystemExactly) {
  Matrix a{{2, 1}, {1, 3}};
  const Vector x = least_squares(a, {5, 10});
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(Qr, OverdeterminedLeastSquares) {
  // Fit y = 2t + 1 through noisy-free samples: exact recovery.
  Matrix a{{0, 1}, {1, 1}, {2, 1}, {3, 1}};
  const Vector x = least_squares(a, {1, 3, 5, 7});
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 1.0, 1e-10);
}

TEST(Qr, RankDetection) {
  Matrix full{{1, 0}, {0, 1}};
  EXPECT_EQ(QrDecomposition(full).rank(), 2u);
  Matrix deficient{{1, 2}, {2, 4}, {3, 6}};
  EXPECT_EQ(QrDecomposition(deficient).rank(), 1u);
}

TEST(Qr, RankDeficientSolveIsFinite) {
  Matrix a{{1, 2}, {2, 4}};
  const Vector x = QrDecomposition(a).solve({3, 6});
  // Consistent system: A x must reproduce b.
  const Vector ax = a.multiply(x);
  EXPECT_NEAR(ax[0], 3.0, 1e-9);
  EXPECT_NEAR(ax[1], 6.0, 1e-9);
}

TEST(Qr, RandomRoundTrip) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5 + trial % 6;
    Matrix a(n + 3, n);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a(i, j) = rng.uniform(-1, 1);
      }
    }
    Vector x_true(n);
    for (auto& v : x_true) v = rng.uniform(-2, 2);
    const Vector b = a.multiply(x_true);
    const Vector x = least_squares(a, b);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(x[j], x_true[j], 1e-8);
    }
  }
}

// ------------------------------------------------------- rank tracker ----

TEST(RankTracker, AcceptsIndependentRejectsDependent) {
  RankTracker tracker(3);
  EXPECT_TRUE(tracker.try_add_ones({0}));
  EXPECT_TRUE(tracker.try_add_ones({1}));
  EXPECT_FALSE(tracker.try_add_ones({0, 1}));  // sum of the first two
  EXPECT_TRUE(tracker.try_add_ones({0, 1, 2}));
  EXPECT_TRUE(tracker.full_rank());
  EXPECT_FALSE(tracker.try_add_ones({2}));
}

TEST(RankTracker, DetectsRationalDependence) {
  // Rows (1,1,0),(0,1,1),(1,0,1) are independent over the reals (det=2)
  // even though they are dependent over GF(2) — the tracker must work over
  // the reals.
  RankTracker tracker(3);
  EXPECT_TRUE(tracker.try_add_ones({0, 1}));
  EXPECT_TRUE(tracker.try_add_ones({1, 2}));
  EXPECT_TRUE(tracker.try_add_ones({0, 2}));
  EXPECT_TRUE(tracker.full_rank());
}

TEST(RankTracker, RejectsDuplicateIndices) {
  RankTracker tracker(3);
  EXPECT_THROW(tracker.try_add_ones({1, 1}), Error);
}

TEST(RankTracker, StaysUsableAfterRejectedInput) {
  // The sparse accumulator persists across calls; a throwing call
  // (duplicate or out-of-range index) must leave it clean so later
  // decisions are unaffected.
  RankTracker tracker(3);
  EXPECT_THROW(tracker.try_add_ones({0, 5}), Error);
  EXPECT_THROW(tracker.try_add_ones({1, 1}), Error);
  EXPECT_TRUE(tracker.try_add_ones({0}));
  EXPECT_TRUE(tracker.try_add_ones({1}));
  EXPECT_FALSE(tracker.try_add_ones({0, 1}));
  EXPECT_EQ(tracker.rank(), 2u);
}

TEST(RankTracker, MatchesQrRankOnRandomZeroOneRows) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t dim = 12;
    Matrix accepted_rows;
    RankTracker tracker(dim);
    Matrix all;
    for (int r = 0; r < 30; ++r) {
      Vector row(dim, 0.0);
      std::vector<std::size_t> ones;
      for (std::size_t j = 0; j < dim; ++j) {
        if (rng.bernoulli(0.3)) {
          row[j] = 1.0;
          ones.push_back(j);
        }
      }
      if (ones.empty()) continue;
      all.append_row(row);
      if (tracker.try_add_ones(ones)) {
        accepted_rows.append_row(row);
      }
    }
    // Tracker rank equals true matrix rank, and accepted rows really are
    // independent.
    EXPECT_EQ(tracker.rank(), QrDecomposition(all.transposed()).rank());
    if (accepted_rows.rows() > 0) {
      EXPECT_EQ(QrDecomposition(accepted_rows.transposed()).rank(),
                accepted_rows.rows());
    }
  }
}

// --------------------------------------------------------------- NNLS ----

TEST(Nnls, MatchesUnconstrainedWhenSolutionPositive) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector b{1, 2, 3};
  const NnlsResult r = reference::nnls_dense(a, b);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 1.0, 1e-8);
  EXPECT_NEAR(r.x[1], 2.0, 1e-8);
}

TEST(Nnls, ClampsNegativeComponents) {
  // Unconstrained solution of x = -1: NNLS must return 0.
  Matrix a{{1}};
  const NnlsResult r = reference::nnls_dense(a, {-1});
  EXPECT_DOUBLE_EQ(r.x[0], 0.0);
  EXPECT_NEAR(r.residual_norm, 1.0, 1e-12);
}

TEST(Nnls, RandomProblemsSatisfyKkt) {
  Rng rng(55);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m = 10, n = 6;
    Matrix a(m, n);
    Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
      b[i] = rng.uniform(-1, 1);
    }
    const NnlsResult r = reference::nnls_dense(a, b);
    ASSERT_TRUE(r.converged);
    const Vector grad = a.multiply_transposed(residual(a, r.x, b));
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(r.x[j], 0.0);
      if (r.x[j] > 1e-9) {
        EXPECT_NEAR(grad[j], 0.0, 1e-6);  // active variables: zero gradient
      } else {
        EXPECT_LE(grad[j], 1e-6);  // inactive: non-ascent direction
      }
    }
  }
}

// ------------------------------------------- updatable cholesky / NNLS ----

Matrix random_spd(std::size_t n, Rng& rng) {
  Matrix a(n + 4, n);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
  }
  Matrix g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t r = 0; r < a.rows(); ++r) g(i, j) += a(r, i) * a(r, j);
    }
    g(i, i) += 0.5;  // comfortably positive definite
  }
  return g;
}

TEST(UpdatableCholesky, AppendMatchesFullFactorization) {
  Rng rng(11);
  const std::size_t n = 8;
  const Matrix g = random_spd(n, rng);
  UpdatableCholesky chol;
  for (std::size_t k = 0; k < n; ++k) {
    Vector cross(k);
    for (std::size_t i = 0; i < k; ++i) cross[i] = g(i, k);
    ASSERT_TRUE(chol.append(cross, g(k, k)));
  }
  Vector rhs(n);
  for (auto& v : rhs) v = rng.uniform(-2, 2);
  const Vector incremental = chol.solve(rhs);
  const Vector direct = reference::CholeskyDecomposition(g).solve(rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(incremental[i], direct[i], 1e-10);
  }
}

TEST(UpdatableCholesky, RemoveMatchesFactorOfSubmatrix) {
  Rng rng(12);
  const std::size_t n = 9;
  const Matrix g = random_spd(n, rng);
  for (const std::size_t drop : {std::size_t{0}, std::size_t{4},
                                 std::size_t{8}}) {
    UpdatableCholesky chol;
    for (std::size_t k = 0; k < n; ++k) {
      Vector cross(k);
      for (std::size_t i = 0; i < k; ++i) cross[i] = g(i, k);
      ASSERT_TRUE(chol.append(cross, g(k, k)));
    }
    chol.remove(drop);
    ASSERT_EQ(chol.size(), n - 1);

    std::vector<std::size_t> kept;
    for (std::size_t i = 0; i < n; ++i) {
      if (i != drop) kept.push_back(i);
    }
    Matrix sub(n - 1, n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (std::size_t j = 0; j + 1 < n; ++j) {
        sub(i, j) = g(kept[i], kept[j]);
      }
    }
    Vector rhs(n - 1);
    for (auto& v : rhs) v = rng.uniform(-2, 2);
    const Vector incremental = chol.solve(rhs);
    const Vector direct = reference::CholeskyDecomposition(sub).solve(rhs);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      EXPECT_NEAR(incremental[i], direct[i], 1e-9) << "drop " << drop;
    }
  }
}

TEST(UpdatableCholesky, RejectsDependentColumnWithoutMutating) {
  UpdatableCholesky chol;
  ASSERT_TRUE(chol.append({}, 4.0));
  // A "column" proportional to the first: cross = 2 * 2, diag = 4.
  EXPECT_FALSE(chol.append({4.0}, 4.0));
  EXPECT_EQ(chol.size(), 1u);
  // Still usable afterwards: an independent column appends fine.
  EXPECT_TRUE(chol.append({0.0}, 9.0));
  const Vector z = chol.solve({4.0, 9.0});
  EXPECT_NEAR(z[0], 1.0, 1e-12);
  EXPECT_NEAR(z[1], 1.0, 1e-12);
}

TEST(Nnls, ModesAgreeOnDuplicateColumns) {
  // Columns 0 and 1 are identical; both engines must cope (the QR reference
  // via rank revelation, the Gram engine via dependent-insert rejection)
  // and produce the same fit.
  Matrix a{{1, 1, 0}, {1, 1, 0}, {0, 0, 1}};
  const Vector b{3, 3, 4};
  const NnlsResult ref = reference::nnls_qr(a, b);
  const NnlsResult inc = reference::nnls_dense(a, b);
  ASSERT_TRUE(ref.converged);
  ASSERT_TRUE(inc.converged);
  EXPECT_NEAR(ref.residual_norm, 0.0, 1e-9);
  EXPECT_NEAR(inc.residual_norm, 0.0, 1e-9);
  const Vector fit_ref = a.multiply(ref.x);
  const Vector fit_inc = a.multiply(inc.x);
  for (std::size_t i = 0; i < b.size(); ++i) {
    EXPECT_NEAR(fit_inc[i], fit_ref[i], 1e-9);
  }
}

TEST(Nnls, NearCollinearColumnHitsRefactorizeFallback) {
  // Column 1 is column 0 plus a 1e-7 sliver orthogonal to it, and the rhs
  // has mass along the sliver: after fitting column 0 the sliver column
  // still shows a positive gradient, but its Schur complement against the
  // passive factor is ~1e-14 of its diagonal — numerically dependent. The
  // incremental engine must refuse the insert (after the refactorize
  // fallback double-checks), block the column, and still converge.
  Matrix a{{2, 1}, {0, 1e-7}};
  const Vector b{1, 10};
  const NnlsResult inc = reference::nnls_dense(a, b);
  ASSERT_TRUE(inc.converged);
  EXPECT_GE(inc.refactorizations, 1u);
  for (double v : inc.x) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
  // The blocked sliver column costs at most its own mass in fit quality.
  const NnlsResult ref = reference::nnls_qr(a, b);
  EXPECT_NEAR(inc.residual_norm, ref.residual_norm, 1e-3);
}

TEST(Nnls, ZeroRhsConvergesToZeroInBothModes) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector b{0, 0, 0};
  for (const NnlsResult& r :
       {reference::nnls_dense(a, b), reference::nnls_qr(a, b)}) {
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.x, Vector({0.0, 0.0}));
    EXPECT_DOUBLE_EQ(r.residual_norm, 0.0);
  }
}

TEST(Nnls, IterationCapReportsNotConverged) {
  Rng rng(77);
  Matrix a(12, 8);
  Vector b(12);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) a(i, j) = rng.uniform(0, 1);
    b[i] = rng.uniform(0, 1);
  }
  NnlsOptions options;
  options.max_iterations = 1;
  for (const NnlsResult& r : {reference::nnls_dense(a, b, options),
                              reference::nnls_qr(a, b, 1)}) {
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.iterations, 1u);
    for (double v : r.x) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(Nnls, IncrementalSatisfiesKktOnRandomProblems) {
  // The incremental engine's own KKT sweep (the historical test covers
  // whatever the default engine is; this pins the Gram path explicitly,
  // plus agreement with the reference engine's active set).
  Rng rng(56);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m = 12, n = 7;
    Matrix a(m, n);
    Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
      b[i] = rng.uniform(-1, 1);
    }
    const NnlsResult r = nnls_gram(reference::make_gram(a, b), {});
    ASSERT_TRUE(r.converged);
    const Vector grad = a.multiply_transposed(residual(a, r.x, b));
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(r.x[j], 0.0);
      if (r.x[j] > 1e-9) {
        EXPECT_NEAR(grad[j], 0.0, 1e-6);
      } else {
        EXPECT_LE(grad[j], 1e-6);
      }
    }
    const NnlsResult ref = reference::nnls_qr(a, b);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(r.x[j], ref.x[j], 1e-8) << "trial " << trial;
    }
  }
}

// ------------------------------------------------------------ simplex ----

TEST(Simplex, HandlesNegativeRhs) {
  // -x1 = -3 -> x1 = 3: the flipped row starts from its s- slack.
  Matrix a{{-1}};
  const L1Result r = l1_regression(a, {-3});
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.x[0], 3.0, 1e-8);
}

TEST(L1Regression, ExactFitWhenConsistent) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector b{1, 2, 3};
  const L1Result r = l1_regression(a, b);
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 2.0, 1e-6);
}

TEST(L1Regression, RobustToSingleOutlier) {
  // Five consistent equations x=2 and one outlier x=100: the L1 solution
  // sticks with the majority (the L2 solution would drift).
  Matrix a{{1}, {1}, {1}, {1}, {1}, {1}};
  const Vector b{2, 2, 2, 2, 2, 100};
  const L1Result r = l1_regression(a, b, 1e-9);
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
}

TEST(L1Regression, UnderdeterminedPrefersSparse) {
  // One equation, two unknowns: x0 + x1 = 1 — with the lambda tie-break,
  // mass concentrates instead of spreading.
  Matrix a{{1, 1}};
  const L1Result r = l1_regression(a, {1}, 1e-6);
  ASSERT_TRUE(r.optimal);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-6);
}

// --------------------------------------------------------------- IRLS ----

TEST(Irls, ApproximatesL1OnOutlierProblem) {
  Matrix a{{1}, {1}, {1}, {1}, {1}, {1}};
  const Vector b{2, 2, 2, 2, 2, 100};
  const IrlsResult r = irls_l1(a, b);
  EXPECT_NEAR(r.x[0], 2.0, 0.1);
}

/// Stopped by its cap, IRLS reports the reweighted solves that ran, not
/// one more.
TEST(Irls, IterationCountStopsAtTheCap) {
  Matrix a{{1}, {1}, {1}, {1}, {1}, {1}};
  const Vector b{2, 2, 2, 2, 2, 100};
  for (const std::size_t cap : {1u, 2u, 3u}) {
    const IrlsResult r = irls_l1(a, b, cap);
    EXPECT_FALSE(r.converged) << "cap " << cap;
    EXPECT_EQ(r.iterations, cap);
  }
}

TEST(Irls, ConsistentSystemExact) {
  Matrix a{{2, 0}, {0, 4}};
  const IrlsResult r = irls_l1(a, {2, 8});
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 2.0, 1e-6);
}

// ------------------------------------------------------------ solvers ----

TEST(Solvers, KindParsingRoundTrip) {
  for (const auto kind :
       {SolverKind::kLeastSquares, SolverKind::kNnls, SolverKind::kL1Lp,
        SolverKind::kIrls}) {
    EXPECT_EQ(solver_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(solver_kind_from_string("bogus"), Error);
}

/// A 0/1 incidence system with owned support storage.
struct OwnedSystem {
  std::vector<std::vector<std::size_t>> supports;
  SparseSystemView view;
};

OwnedSystem zero_one_system(std::size_t cols,
                            std::vector<std::vector<std::size_t>> supports,
                            const Vector& y) {
  OwnedSystem out{std::move(supports), {}};
  out.view.cols = cols;
  for (std::size_t i = 0; i < out.supports.size(); ++i) {
    SparseRow row;
    row.support = out.supports[i].data();
    row.support_size = out.supports[i].size();
    row.y = y[i];
    out.view.rows.push_back(row);
  }
  return out;
}

LogSystemSolution solve_with(const OwnedSystem& system, SolverKind kind) {
  SolverOptions options;
  options.kind = kind;
  return solve_log_system(system.view, options);
}

TEST(Solvers, AllKindsSolveConsistentLogSystem) {
  // x = (log 0.9, log 0.8, log 0.7); equations: x0+x1, x1+x2, x0+x2.
  const double x0 = std::log(0.9), x1 = std::log(0.8), x2 = std::log(0.7);
  const OwnedSystem system = zero_one_system(
      3, {{0, 1}, {1, 2}, {0, 2}}, {x0 + x1, x1 + x2, x0 + x2});
  for (const auto kind :
       {SolverKind::kLeastSquares, SolverKind::kNnls, SolverKind::kL1Lp,
        SolverKind::kIrls}) {
    const LogSystemSolution s = solve_with(system, kind);
    EXPECT_NEAR(s.x[0], x0, 1e-5) << to_string(kind);
    EXPECT_NEAR(s.x[1], x1, 1e-5) << to_string(kind);
    EXPECT_NEAR(s.x[2], x2, 1e-5) << to_string(kind);
  }
}

TEST(Solvers, SolutionsAreAlwaysNonPositive) {
  // Inconsistent noisy system: whatever the solver does, x must stay <= 0
  // (they are log-probabilities).
  // Note the positive (infeasible) entry.
  const OwnedSystem system =
      zero_one_system(2, {{0}, {1}, {0, 1}}, {0.5, -0.1, -0.2});
  for (const auto kind :
       {SolverKind::kLeastSquares, SolverKind::kNnls, SolverKind::kL1Lp,
        SolverKind::kIrls}) {
    const LogSystemSolution s = solve_with(system, kind);
    for (double v : s.x) {
      EXPECT_LE(v, 0.0) << to_string(kind);
    }
  }
}

TEST(Solvers, RejectsNonFiniteRhs) {
  const OwnedSystem system = zero_one_system(
      1, {{0}}, {std::numeric_limits<double>::quiet_NaN()});
  EXPECT_THROW(solve_with(system, SolverKind::kNnls), Error);
  EXPECT_THROW(solve_with(system, SolverKind::kLeastSquares), Error);
}

// ------------------------------------------ out-of-range support index ----

/// Row 1 names column 7 of a 3-column view. Unchecked, the Gram build's
/// per-column counts wrote past their buffer; every entry point must
/// instead throw a tomo::Error that names the row.
OwnedSystem out_of_range_system() {
  return zero_one_system(3, {{0, 1}, {1, 7}}, {-0.1, -0.2});
}

/// A valid system with the same shape, for the Gram-taking entry points.
OwnedSystem in_range_system() {
  return zero_one_system(3, {{0, 1}, {1, 2}}, {-0.1, -0.2});
}

template <typename Call>
void expect_row_rejected(const Call& call, const std::string& what) {
  try {
    call();
    ADD_FAILURE() << what << ": accepted an out-of-range support index";
  } catch (const Error& e) {
    EXPECT_NE(e.message().find("row 1"), std::string::npos)
        << what << ": " << e.message();
  }
}

TEST(Solvers, SolveRejectsOutOfRangeSupportIndex) {
  const OwnedSystem bad = out_of_range_system();
  for (const auto kind : {SolverKind::kNnls, SolverKind::kLeastSquares}) {
    expect_row_rejected([&] { solve_with(bad, kind); }, to_string(kind));
  }
}

TEST(Solvers, SolveWithGramRejectsOutOfRangeSupportIndex) {
  GramSystem gs;
  accumulate_gram(gs, in_range_system().view, 1);
  const OwnedSystem bad = out_of_range_system();
  expect_row_rejected([&] { solve_log_system(bad.view, gs, {}); },
                      "solve_log_system(gram)");
}

TEST(Solvers, AccumulateGramRejectsOutOfRangeSupportIndex) {
  const OwnedSystem bad = out_of_range_system();
  GramSystem gs;
  expect_row_rejected([&] { accumulate_gram(gs, bad.view, 1); },
                      "accumulate_gram");
  EXPECT_EQ(gs.gram.cols(), 0u) << "a rejected view must leave gs as it was";
}

TEST(Solvers, AccumulateGramOverABuiltGramRejectsOutOfRangeSupportIndex) {
  GramSystem gs;
  accumulate_gram(gs, in_range_system().view, 1);
  const GramSystem before = gs;
  const OwnedSystem bad = out_of_range_system();
  expect_row_rejected([&] { accumulate_gram(gs, bad.view, 1); },
                      "accumulate_gram");
  EXPECT_EQ(gs.gram.values, before.gram.values);
  EXPECT_EQ(gs.rows.support, before.rows.support);
}

/// A Gram system built from other rows of the same width must not leak
/// into the solve: the result is bitwise a fresh solve of the view, and
/// the kinds that solve a dense copy leave the Gram system alone.
TEST(Solvers, SolveWithAGramOfOtherRowsEqualsAFreshSolve) {
  const OwnedSystem other = zero_one_system(2, {{0}, {1}}, {-0.1, -0.2});
  const OwnedSystem system = zero_one_system(2, {{0, 1}, {0}}, {-0.5, -0.45});
  for (const auto kind : {SolverKind::kNnls, SolverKind::kLeastSquares}) {
    SolverOptions options;
    options.kind = kind;
    GramSystem gs;
    accumulate_gram(gs, other.view, 1);
    const GramSystem before = gs;
    const LogSystemSolution fresh = solve_log_system(system.view, options);
    const LogSystemSolution held = solve_log_system(system.view, gs, options);
    EXPECT_EQ(held.x, fresh.x) << to_string(kind);
    EXPECT_EQ(held.residual_norm2, fresh.residual_norm2) << to_string(kind);
    EXPECT_FALSE(held.gram_reused) << to_string(kind);
    if (kind != SolverKind::kNnls) {
      EXPECT_EQ(gs.gram.values, before.gram.values) << to_string(kind);
      EXPECT_EQ(gs.atb, before.atb) << to_string(kind);
    }
  }
  EXPECT_NEAR(solve_with(system, SolverKind::kNnls).x[0], -0.45, 1e-12);
}

// ------------------------------------------------- Gram build pipeline ----

/// A random 0/1-support sparse system with owned index storage (what the
/// core equation harvest hands the solver, minus the harvest).
struct OwnedSparseSystem {
  std::vector<std::vector<std::size_t>> supports;
  SparseSystemView view;
};

OwnedSparseSystem random_sparse_system(std::size_t rows, std::size_t cols,
                                       std::uint64_t seed) {
  OwnedSparseSystem out;
  out.view.cols = cols;
  Rng rng(seed);
  out.supports.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::size_t> support;
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.uniform() < 0.3) support.push_back(j);
    }
    if (support.empty()) support.push_back(i % cols);
    out.supports.push_back(std::move(support));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    SparseRow row;
    row.support = out.supports[i].data();
    row.support_size = out.supports[i].size();
    row.value = 0.25 + rng.uniform();
    row.y = -rng.uniform();
    out.view.rows.push_back(row);
  }
  return out;
}

GramSystem gram_of(const SparseSystemView& view, std::size_t jobs) {
  GramSystem gs;
  accumulate_gram(gs, view, jobs);
  return gs;
}

void expect_gram_bits_equal(const GramSystem& a, const GramSystem& b,
                            const std::string& what) {
  ASSERT_EQ(a.gram.cols(), b.gram.cols()) << what;
  for (std::size_t i = 0; i < a.gram.cols(); ++i) {
    for (std::size_t j = 0; j < a.gram.cols(); ++j) {
      ASSERT_EQ(a.gram(i, j), b.gram(i, j))
          << what << " gram(" << i << "," << j << ")";
    }
  }
  // The same cells from the same storage: no entry stored on one side only.
  ASSERT_EQ(a.gram.offsets, b.gram.offsets) << what;
  ASSERT_EQ(a.gram.index, b.gram.index) << what;
  ASSERT_EQ(a.gram.values, b.gram.values) << what;
  ASSERT_EQ(a.atb.size(), b.atb.size()) << what;
  for (std::size_t j = 0; j < a.atb.size(); ++j) {
    ASSERT_EQ(a.atb[j], b.atb[j]) << what << " atb[" << j << "]";
  }
  ASSERT_EQ(a.btb, b.btb) << what;
}

/// accumulate_gram builds; it never adds to what `gs` held. A GramSystem
/// already holding another system's Gram (StreamingInference's kept Gram
/// when the equation support changes) must come out bitwise equal to a
/// fresh build, whether the old system had the same column count or not.
TEST(Solvers, AccumulateGramReplacesAPriorGramBitwise) {
  const OwnedSparseSystem sys = random_sparse_system(60, 17, 1);
  const GramSystem fresh = gram_of(sys.view, 1);
  for (const std::size_t prior_cols : {17ul, 9ul, 30ul}) {
    const OwnedSparseSystem prior =
        random_sparse_system(40, prior_cols, 2 + prior_cols);
    for (const std::size_t jobs : {1ul, 3ul}) {
      GramSystem reused = gram_of(prior.view, jobs);
      accumulate_gram(reused, sys.view, jobs);
      expect_gram_bits_equal(reused, fresh,
                             "prior cols=" + std::to_string(prior_cols) +
                                 " jobs=" + std::to_string(jobs));
    }
  }
}

TEST(Solvers, GramAccumulationIsJobsInvariant) {
  const OwnedSparseSystem sys = random_sparse_system(80, 23, 0x9e);
  const GramSystem serial = gram_of(sys.view, 1);
  const GramSystem parallel = gram_of(sys.view, 3);
  expect_gram_bits_equal(serial, parallel, "jobs 1 vs 3");
}

void expect_rows_equal(const GramSystem::Rows& a, const GramSystem::Rows& b,
                       const std::string& what) {
  EXPECT_EQ(a.offsets, b.offsets) << what;
  EXPECT_EQ(a.support, b.support) << what;
  ASSERT_EQ(a.values.size(), b.values.size()) << what;
  for (std::size_t r = 0; r < a.values.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.values[r]),
              std::bit_cast<std::uint64_t>(b.values[r]))
        << what << " value of row " << r;
  }
}

/// `sys` with its own copy of every support, so a view equal to it shares
/// no storage with it.
OwnedSparseSystem copy_of(const OwnedSparseSystem& sys) {
  OwnedSparseSystem out{sys.supports, sys.view};
  for (std::size_t r = 0; r < out.view.rows.size(); ++r) {
    out.view.rows[r].support = out.supports[r].data();
  }
  return out;
}

/// Over bitwise the rows G was built from (in other storage), with new
/// right-hand sides, accumulate_gram keeps G, the recorded rows and the
/// warm seed, and recomputes c and b^T b exactly as a fresh build.
TEST(Solvers, AccumulateGramKeepsGOverTheSameRows) {
  const OwnedSparseSystem sys = random_sparse_system(50, 13, 0x51);
  for (const std::size_t jobs : {1ul, 3ul}) {
    GramSystem gs;
    EXPECT_FALSE(accumulate_gram(gs, sys.view, jobs));
    seed_warm_factor(gs, {0, 4, 7});
    const GramSystem built = gs;

    OwnedSparseSystem next = copy_of(sys);
    for (SparseRow& row : next.view.rows) row.y *= 0.5;
    EXPECT_TRUE(accumulate_gram(gs, next.view, jobs));
    const std::string what = "jobs=" + std::to_string(jobs);
    EXPECT_EQ(gs.gram.offsets, built.gram.offsets) << what;
    EXPECT_EQ(gs.gram.index, built.gram.index) << what;
    EXPECT_EQ(gs.gram.values, built.gram.values) << what;
    expect_rows_equal(gs.rows, built.rows, what);
    EXPECT_EQ(gs.warm.list, built.warm.list) << what;
    EXPECT_EQ(gs.warm.passive, built.warm.passive) << what;
    expect_gram_bits_equal(gs, gram_of(next.view, jobs), what);
  }
}

/// A changed support entry, row value, row count or width makes
/// accumulate_gram rebuild: the result is bitwise a fresh build, rows
/// included, and the warm seed of the old G is dropped.
TEST(Solvers, AccumulateGramRebuildsOnAChangedRow) {
  const OwnedSparseSystem sys = random_sparse_system(50, 13, 0x52);
  std::vector<std::pair<std::string, OwnedSparseSystem>> changes;
  {
    // The same support size, one index replaced by a column it missed.
    OwnedSparseSystem c = copy_of(sys);
    std::vector<std::size_t>& support = c.supports[7];
    std::size_t absent = 0;
    while (std::ranges::binary_search(support, absent)) ++absent;
    ASSERT_LT(absent, c.view.cols);
    support.back() = absent;
    std::ranges::sort(support);
    changes.emplace_back("support", std::move(c));
  }
  {
    OwnedSparseSystem c = copy_of(sys);
    c.view.rows[11].value = std::nextafter(c.view.rows[11].value, 2.0);
    changes.emplace_back("value", std::move(c));
  }
  {
    OwnedSparseSystem c = copy_of(sys);
    c.view.rows.pop_back();
    changes.emplace_back("rows", std::move(c));
  }
  {
    OwnedSparseSystem c = copy_of(sys);
    c.view.cols = 14;
    changes.emplace_back("cols", std::move(c));
  }
  for (const auto& [what, changed] : changes) {
    GramSystem gs;
    accumulate_gram(gs, sys.view, 1);
    seed_warm_factor(gs, {0, 4, 7});
    ASSERT_FALSE(gs.warm.passive.empty()) << what;
    EXPECT_FALSE(accumulate_gram(gs, changed.view, 1)) << what;
    const GramSystem fresh = gram_of(changed.view, 1);
    expect_gram_bits_equal(gs, fresh, what);
    expect_rows_equal(gs.rows, fresh.rows, what);
    EXPECT_TRUE(gs.warm.list.empty()) << what;
    EXPECT_TRUE(gs.warm.passive.empty()) << what;
    EXPECT_EQ(gs.warm.chol.size(), 0u) << what;
  }
}

/// Over the rows G was built from, accumulate_gram rebuilds only atb/btb
/// (the per-window right-hand side) and must restore the exact fresh-build
/// bits while leaving the kept G = A^T A untouched.
TEST(Solvers, AccumulateGramRestoresExactRhsBitsOverAKeptG) {
  const OwnedSparseSystem sys = random_sparse_system(40, 11, 0x42);
  const GramSystem batch = gram_of(sys.view, 1);

  GramSystem scribbled = batch;
  for (std::size_t j = 0; j < scribbled.atb.size(); ++j) {
    scribbled.atb[j] = 1e9 + static_cast<double>(j);
  }
  scribbled.btb = -1.0;
  EXPECT_TRUE(accumulate_gram(scribbled, sys.view, 1));
  expect_gram_bits_equal(scribbled, batch, "refreshed rhs");
}

}  // namespace
}  // namespace tomo::linalg
