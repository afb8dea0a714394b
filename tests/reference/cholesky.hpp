// Dense Cholesky factorization and normal-equation least squares: the
// from-scratch factor linalg::UpdatableCholesky (the NNLS passive-set
// factor, edited column by column) is pinned against.
#pragma once

#include "linalg/matrix.hpp"

namespace tomo::reference {

using linalg::Matrix;
using linalg::Vector;

/// Cholesky factor of a symmetric positive-definite matrix: A = L L^T.
class CholeskyDecomposition {
 public:
  /// Factorizes `a` (must be square, symmetric, positive definite; a
  /// tomo::Error is thrown when a non-positive pivot is met).
  explicit CholeskyDecomposition(const Matrix& a);

  /// Solves A x = b via the factor.
  Vector solve(const Vector& b) const;

  std::size_t size() const { return l_.rows(); }
  const Matrix& factor() const { return l_; }

 private:
  Matrix l_;  // lower triangular
};

/// Least squares through the normal equations with Tikhonov jitter
/// `ridge` (default 0) on the diagonal: solves (A^T A + ridge I) x = A^T b.
/// Throws tomo::Error when the normal matrix is numerically singular and
/// ridge == 0.
Vector normal_equations_least_squares(const Matrix& a, const Vector& b,
                                      double ridge = 0.0);

}  // namespace tomo::reference
