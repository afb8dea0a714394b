#include <gtest/gtest.h>

#include "linalg/qr.hpp"
#include "reference/cholesky.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::linalg {
namespace {

using reference::CholeskyDecomposition;
using reference::normal_equations_least_squares;

TEST(Cholesky, FactorizesAndSolvesSpdSystem) {
  Matrix a{{4, 2}, {2, 3}};
  const CholeskyDecomposition chol(a);
  const Vector x = chol.solve({10, 8});
  EXPECT_NEAR(a.multiply(x)[0], 10.0, 1e-10);
  EXPECT_NEAR(a.multiply(x)[1], 8.0, 1e-10);
  // L is lower triangular with positive diagonal.
  EXPECT_GT(chol.factor()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(chol.factor()(0, 1), 0.0);
}

TEST(Cholesky, RejectsNonSpd) {
  Matrix not_pd{{1, 2}, {2, 1}};  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyDecomposition{not_pd}, Error);
  Matrix rect(2, 3);
  EXPECT_THROW(CholeskyDecomposition{rect}, Error);
}

TEST(Cholesky, FactorReproducesMatrix) {
  Rng rng(9);
  const std::size_t n = 6;
  // Random SPD: M = B B^T + n I.
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.uniform(-1, 1);
  }
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = (i == j) ? static_cast<double>(n) : 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += b(i, k) * b(j, k);
      m(i, j) = sum;
    }
  }
  const CholeskyDecomposition chol(m);
  const Matrix& l = chol.factor();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += l(i, k) * l(j, k);
      EXPECT_NEAR(sum, m(i, j), 1e-9);
    }
  }
}

TEST(NormalEquations, MatchesQrOnWellConditionedProblems) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 15, n = 6;
    Matrix a(m, n);
    Vector b(m);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1, 1);
      b[i] = rng.uniform(-1, 1);
    }
    const Vector x_qr = least_squares(a, b);
    const Vector x_ne = normal_equations_least_squares(a, b);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(x_ne[j], x_qr[j], 1e-7);
    }
  }
}

TEST(NormalEquations, RidgeHandlesRankDeficiency) {
  Matrix a{{1, 1}, {2, 2}, {3, 3}};  // rank 1
  EXPECT_THROW(normal_equations_least_squares(a, {1, 2, 3}), Error);
  const Vector x = normal_equations_least_squares(a, {1, 2, 3}, 1e-6);
  // Regularized solution splits the weight symmetrically.
  EXPECT_NEAR(x[0], x[1], 1e-9);
  const Vector ax = a.multiply(x);
  EXPECT_NEAR(ax[0], 1.0, 1e-3);
}

TEST(NormalEquations, ExactOnConsistentSystems) {
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  const Vector x = normal_equations_least_squares(a, {2, 3, 5});
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

}  // namespace
}  // namespace tomo::linalg
