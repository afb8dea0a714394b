#include "reference/cholesky.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tomo::reference {

CholeskyDecomposition::CholeskyDecomposition(const Matrix& a)
    : l_(a.rows(), a.cols()) {
  TOMO_REQUIRE(a.rows() == a.cols(), "cholesky needs a square matrix");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      diag -= l_(j, k) * l_(j, k);
    }
    TOMO_REQUIRE(diag > 0.0,
                 "cholesky: matrix is not positive definite");
    l_(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        sum -= l_(i, k) * l_(j, k);
      }
      l_(i, j) = sum / l_(j, j);
    }
  }
}

Vector CholeskyDecomposition::solve(const Vector& b) const {
  const std::size_t n = l_.rows();
  TOMO_REQUIRE(b.size() == n, "cholesky solve: rhs length mismatch");
  // Forward substitution L y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= l_(i, k) * y[k];
    }
    y[i] = sum / l_(i, i);
  }
  // Back substitution L^T x = y.
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < n; ++k) {
      sum -= l_(k, i) * x[k];
    }
    x[i] = sum / l_(i, i);
  }
  return x;
}

Vector normal_equations_least_squares(const Matrix& a, const Vector& b,
                                      double ridge) {
  TOMO_REQUIRE(b.size() == a.rows(), "normal equations: rhs mismatch");
  TOMO_REQUIRE(ridge >= 0.0, "ridge must be non-negative");
  const std::size_t n = a.cols();
  Matrix ata(n, n);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_data(r);
    for (std::size_t i = 0; i < n; ++i) {
      if (row[i] == 0.0) continue;
      for (std::size_t j = i; j < n; ++j) {
        ata(i, j) += row[i] * row[j];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    ata(i, i) += ridge;
    for (std::size_t j = 0; j < i; ++j) {
      ata(i, j) = ata(j, i);
    }
  }
  const Vector atb = a.multiply_transposed(b);
  return CholeskyDecomposition(ata).solve(atb);
}

}  // namespace tomo::reference
