// Updatable Cholesky factorization for active-set solvers.
//
// Maintains the lower-triangular factor L of a symmetric positive-definite
// matrix M = L L^T under two O(k^2) edits: appending a symmetric row/column
// and deleting an arbitrary row/column. The NNLS inner loop lives on this:
// M is the passive-set block G[P, P] of a once-per-solve Gram matrix
// G = A^T A, and every Lawson-Hanson iteration is a factor edit plus two
// triangular solves instead of a fresh m x k QR factorization.
//
// Layout. L is stored by columns, kPanel columns to a panel: panel q holds
// columns [q kPanel, (q + 1) kPanel) from row q kPanel down, column-major
// with its own leading dimension, so column c's entries L(c..k-1, c) are
// contiguous. Every append adds one row to every column, so each panel
// keeps spare rows and grows alone, by a quarter, to a leading dimension
// that is an odd multiple of 8 doubles (never a power-of-two stride). The
// storage follows k, and a growth copies one panel, never the whole
// factor, so the peak stays near the k(k+1)/2 doubles of a packed factor.
//
// Kernels. Each does the floating-point operations of the row-packed
// factor it replaced, in the same order (that factor is kept in
// tests/reference as reference::PackedCholesky, and
// UpdatableCholeskyDifferential pins the two bit for bit); only
// independent chains overlap.
//  - Forward substitution (solve, and the new row of append) is
//    right-looking: once y[c] is final, column c's contiguous run updates
//    every later row. Four columns go in lockstep, so each later row
//    subtracts L(i, c) y[c] for the four in ascending c within one pass:
//    every row still sees its terms in ascending column order.
//  - Back-substitution z[i] = (y[i] - sum_{j>i} L(j, i) z[j]) / L(i, i)
//    keeps its ascending-j sum, now over one contiguous run of column i.
//    It is one dependent chain of k^2/2 subtractions, bound by latency.
//  - remove(p) shifts the columns left of p up one row, then applies
//    Givens rotation j to the column pair (j, j + 1) over rows j..k-2 for
//    j = p..k-2 in order: every entry sees the c u + s v / c v - s u
//    sequence of the old row sweep, in place and without allocating.
// None of them may reassociate a sum or contract a - b c into an FMA.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace tomo::linalg {

class UpdatableCholesky {
 public:
  /// Number of columns currently factored.
  std::size_t size() const { return size_; }

  /// Appends the symmetric row/column (`cross`, `diag`) where `cross[i]` is
  /// the inner product against current column i (length size()) and `diag`
  /// the new column's self inner product. Rejects the edit and returns
  /// false — leaving the factor untouched — when the Schur complement
  /// diag - ||L^-1 cross||^2 is <= rel_tol * diag: the new column is
  /// numerically dependent on the factored ones and would poison later
  /// triangular solves.
  bool append(const Vector& cross, double diag, double rel_tol = 1e-12);

  /// Deletes row/column `position` (< size()) and restores triangularity
  /// with Givens rotations on the trailing column pairs.
  void remove(std::size_t position);

  /// Solves (L L^T) z = rhs; rhs.size() must equal size().
  Vector solve(const Vector& rhs) const;

  /// Resets to the empty factor (keeps storage).
  void clear();

 private:
  /// Columns per panel.
  static constexpr std::size_t kPanel = 32;

  /// y = L^-1 b over the first size() rows; y may alias b.
  void forward(const double* b, double* y) const;

  /// Leading dimension (stored rows) of panel q.
  std::size_t ld(std::size_t q) const { return panels_[q].size() / kPanel; }

  /// Grows panel q, if needed, to hold rows up to `row` inclusive.
  void reserve_row(std::size_t q, std::size_t row);

  std::vector<std::vector<double>> panels_;  // may outnumber the columns
  std::size_t size_ = 0;
};

}  // namespace tomo::linalg
