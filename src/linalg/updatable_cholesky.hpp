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
// Kept state. Beside L the factor keeps two things across edits:
//  - the last solve's rhs b and y = L^-1 b, with a watermark: the first
//    row any edit has touched since that solve (an append at k sets it to
//    k, remove(p) to p, clear to 0). An edit leaves the rows of L above
//    it, and so the leading entries of y, unchanged. solve(rhs) redoes the
//    forward substitution only from the smaller of the watermark and the
//    first entry where rhs differs bitwise from the kept b (an O(k) scan,
//    so callers promise nothing); a solve right after an append costs one
//    O(k) row instead of k^2/2 operations.
//  - per column, a bitmask of its nonzero entries below the diagonal, in
//    storage that grows with its panel. append sets one bit per column;
//    remove(p) deletes bit p from the columns left of p, and each Givens
//    rotation gives its two columns the union of their masks (c u + s v
//    and c v - s u are nonzero only where u or v is), or swaps them when
//    the rotation is a swap (c = 0): O(k / 64) words a column. The union
//    is needed: an entry of L can be an exact cancellation, a zero below
//    fill-in, that a remove makes nonzero again. A mask is exact unless a
//    rotated entry cancels or underflows to zero; it then keeps a bit for
//    a zero entry, a term the old loop subtracted too.
//
// Kernels. Each does the floating-point operations of the row-packed
// factor it replaced, in the same order (that factor is kept in
// tests/reference as reference::PackedCholesky, and
// UpdatableCholeskyDifferential pins the two bit for bit), minus terms
// that are exact identities (see below); only independent chains overlap.
//  - Forward substitution (solve, and the new row of append) is
//    right-looking: once y[c] is final, column c's contiguous run updates
//    every later row. Four columns go in lockstep, so each later row
//    subtracts L(i, c) y[c] for the four in ascending c within one pass:
//    every row still sees its terms in ascending column order. Rows the
//    kept state recomputes first subtract every earlier column, in the
//    same lockstep, then join the sweep. An append's row starts at the
//    first nonzero of `cross` (the rows before it are +0), and a column
//    whose y[c] is exactly 0 (all four, in a lockstep) updates no row:
//    the appended row of L is as sparse as L itself.
//  - Back-substitution z[i] = (y[i] - sum_{j>i} L(j, i) z[j]) / L(i, i)
//    keeps its ascending-j sum over column i. The sum is one dependent
//    chain, so its cost is its length: every column walks its mask's set
//    bits in ascending row order (two a loop trip) and skips the exact
//    zeros. On a dense factor the walk costs about what the plain
//    contiguous loop did.
//  - remove(p) shifts the columns left of p up one row, then applies
//    Givens rotation j to the column pair (j, j + 1) over rows j..k-2 for
//    j = p..k-2 in order: every entry sees the c u + s v / c v - s u
//    sequence of the old row sweep, in place and without allocating.
// None of them may reassociate a sum or contract a - b c into an FMA.
//
// Why the skipped terms leave every bit unchanged. The entries of L are
// finite: append rejects a row with a non-finite entry through its norm,
// and each entry is bounded by the square root of its Gram diagonal.
// Inputs hold no -0: the NNLS passes Gram entries and atb values, sums
// begun at +0 (absent Gram entries are gathered as +0). A forward running
// sum starts from such a value and only subtracts, so it never holds -0
// (an exact-zero difference rounds to +0). Subtracting a skipped +-0 term
// from it is therefore the identity: an append's leading rows are
// +0 - (+-0) = +0, and a forward term L(i, c) y[c] with y[c] = 0 is +-0.
// A back-substitution term with L(j, i) = +-0 and a finite z[j] is +-0
// too, but that sum starts from y[i] = s / L(i, i), which is -0 when the
// quotient underflows. While the sum is still -0, a skipped -(-0) term
// would have turned it into +0; once it is nonzero or +0, skipping changes
// nothing. So the skip can change only the sign of a z[i] that is zero,
// and through it only the signs of zeros: every nonzero output keeps its
// bits. The NNLS does not read that sign: it compares z[i] with a positive
// tolerance, and a passive entry at or below it leaves at +0. With a
// non-finite z[j] the skipped 0 z[j] would have made the sum NaN, but z[j]
// is itself an output entry, so the result is non-finite either way;
// all_finite(z), the only use the NNLS makes of such a solve, agrees. Kept
// rows of y see the same rows of L and the same rhs entries as a full
// forward substitution, so they hold the same bits.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Solves (L L^T) z = rhs; rhs.size() must equal size(). Keeps rhs and
  /// L^-1 rhs for the next solve.
  Vector solve(const Vector& rhs);

  /// Resets to the empty factor (keeps storage).
  void clear();

 private:
  /// Columns per panel.
  static constexpr std::size_t kPanel = 32;

  /// Rows [from, size()) of y -= the terms of columns [0, from), whose
  /// y entries are final, each row in ascending column order.
  void subtract_prefix(double* y, std::size_t from) const;

  /// Finishes y = L^-1 b from column `from` on, given y[0, from) final
  /// and rows [from, size()) holding b minus those columns' terms.
  void sweep(double* y, std::size_t from) const;

  /// Leading dimension (stored rows) of panel q.
  std::size_t ld(std::size_t q) const { return panels_[q].size() / kPanel; }

  /// Mask words per column of panel q.
  std::size_t mask_words(std::size_t q) const {
    return masks_[q].size() / kPanel;
  }

  /// L(c, c); column c's entries below it follow contiguously.
  double* diagonal(std::size_t c) {
    return panels_[c / kPanel].data() + (c % kPanel) * (ld(c / kPanel) + 1);
  }
  const double* diagonal(std::size_t c) const {
    return panels_[c / kPanel].data() + (c % kPanel) * (ld(c / kPanel) + 1);
  }

  /// Column c's mask: bit b is set when L(c + 1 + b, c) != 0 (and, after a
  /// cancellation in remove, for a few zero entries). Bits past the
  /// column's length are clear.
  std::uint64_t* mask(std::size_t c) {
    return masks_[c / kPanel].data() + (c % kPanel) * mask_words(c / kPanel);
  }

  /// Grows panel q (and its masks), if needed, to hold rows up to `row`
  /// inclusive.
  void reserve_row(std::size_t q, std::size_t row);

  std::vector<std::vector<double>> panels_;  // may outnumber the columns
  std::vector<std::vector<std::uint64_t>> masks_;  // one per panel
  std::size_t size_ = 0;
  Vector kept_b_;              // the last solve's rhs
  Vector kept_y_;              // L^-1 kept_b_
  std::size_t kept_rows_ = 0;  // leading rows of kept_y_ no edit touched
};

}  // namespace tomo::linalg
