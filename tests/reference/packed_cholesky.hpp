// The historical passive-set factor of linalg::nnls_gram: the updatable
// Cholesky factor packed row by row, with a row-at-a-time forward
// substitution, a strided back-substitution and a Givens remove on
// unpacked copies of the trailing rows. linalg::UpdatableCholesky (stored
// by columns) is pinned against it bit for bit.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace tomo::reference {

using linalg::Vector;

class PackedCholesky {
 public:
  /// Starts empty (size() == 0); `capacity` only pre-reserves storage.
  explicit PackedCholesky(std::size_t capacity = 0);

  /// Number of columns currently factored.
  std::size_t size() const { return size_; }

  /// Appends the symmetric row/column (`cross`, `diag`) where `cross[i]` is
  /// the inner product against current column i (length size()) and `diag`
  /// the new column's self inner product. Rejects the edit and returns
  /// false — leaving the factor untouched — when the Schur complement
  /// diag - ||L^-1 cross||^2 is <= rel_tol * diag.
  bool append(const Vector& cross, double diag, double rel_tol = 1e-12);

  /// Deletes row/column `position` (< size()) and restores triangularity
  /// with Givens rotations applied to the trailing rows.
  void remove(std::size_t position);

  /// Solves (L L^T) z = rhs; rhs.size() must equal size().
  Vector solve(const Vector& rhs) const;

  /// Resets to the empty factor (keeps storage).
  void clear();

  /// L(r, c) for c <= r < size().
  double entry(std::size_t r, std::size_t c) const { return at(r, c); }

 private:
  double& at(std::size_t r, std::size_t c) { return l_[r * (r + 1) / 2 + c]; }
  double at(std::size_t r, std::size_t c) const {
    return l_[r * (r + 1) / 2 + c];
  }

  // Packed row-major lower triangle: row r occupies entries
  // [r(r+1)/2, r(r+1)/2 + r].
  std::vector<double> l_;
  std::size_t size_ = 0;
};

}  // namespace tomo::reference
