// Non-negative least squares (Lawson-Hanson active-set method).
//
// Used to solve the rank-deficient tomography systems: with the
// substitution u = -x (x are log-probabilities, hence <= 0), the system
// A x = y becomes A u = -y with u >= 0, and NNLS both honours the sign
// constraint and yields sparse minimum-ish solutions, which is the effect
// the paper's "minimize the L1 norm error" fallback is after.
//
// The engine works on the normal equations of a Gram system (G = A^T A,
// c = A^T b, G stored by its nonzeros; a caller that re-solves keeps one
// GramSystem, which also holds the warm start's seeded factor, across
// solves): every inner iteration edits an UpdatableCholesky factor of the
// passive block G[P, P] in O(k^2) and triangular-solves, instead of
// re-running an m x k QR from scratch, and every read of G walks only a
// column's stored entries. Numerically dependent passive candidates are
// rejected at insert time (with a condition-triggered refactorize
// fallback), and columns dropped by a degenerate zero-length step are
// blocked from immediate re-entry until the iterate moves — the
// anti-cycling safeguard. The historical engine (a fresh QR on the passive
// columns every iteration) is kept in tests/reference as the differential
// baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/updatable_cholesky.hpp"

namespace tomo::linalg {

struct NnlsOptions {
  /// 0 means the 3 * cols + 10 default, which is ample in practice.
  std::size_t max_iterations = 0;
  /// Warm start: columns seeded into the passive set before the active-set
  /// loop runs — typically the previous window's
  /// converged support in a streaming solve. Out-of-range, duplicate, or
  /// numerically dependent entries are dropped, and seeded columns whose
  /// restricted solution is infeasible are removed before iteration, so a
  /// stale or perturbed set is always safe: the result is the same optimum
  /// a cold solve reaches, just via fewer iterations. When it equals the
  /// list seed_warm_factor seeded the solved GramSystem with, the solve
  /// copies that factor instead of admitting the columns again.
  std::vector<std::size_t> warm_start;
};

struct NnlsResult {
  Vector x;                    // the non-negative solution
  double residual_norm = 0.0;  // ||A x - b||_2
  std::size_t iterations = 0;
  bool converged = false;  // false if the iteration cap was hit
  /// Full refactorizations of the passive-set factor: > 0 means the
  /// condition-triggered fallback fired.
  std::size_t refactorizations = 0;
  /// The converged passive set (columns with x > 0), sorted ascending —
  /// feed it back through NnlsOptions::warm_start to seed the next related
  /// solve.
  std::vector<std::size_t> active_set;
};

/// G = A^T A stored by its nonzeros, as compressed sparse columns with
/// both triangles kept so every column reads whole. Column j holds the
/// entries (index[p], values[p]) for p in [offsets[j], offsets[j + 1]),
/// indices strictly ascending. accumulate_gram stores an entry exactly
/// when some row of A touches both its row and its column, so every absent
/// entry is an exact zero. Default-constructed it is the 0 x 0 matrix.
struct SparseGram {
  std::vector<std::size_t> offsets;  // cols + 1 prefix sums, or empty
  std::vector<std::uint32_t> index;  // row of each stored entry
  std::vector<double> values;        // the stored entries, column by column

  std::size_t cols() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t nnz() const { return values.size(); }
  /// G(i, j), or 0 when the entry is absent.
  double operator()(std::size_t i, std::size_t j) const;
};

/// Normal-equations view of a least-squares problem: everything NNLS needs
/// once the rows of A are no longer required individually. Building it is
/// the only O(rows) work in an incremental solve.
struct GramSystem {
  SparseGram gram;   // A^T A, cols x cols, symmetric
  Vector atb;        // A^T b
  double btb = 0.0;  // b^T b, for residual recovery

  /// The rows G was built from, as linalg::accumulate_gram records them:
  /// row r has value values[r] on the columns support[offsets[r],
  /// offsets[r + 1]). Empty (no offsets at all) when G came from anywhere
  /// else, so accumulate_gram keeps G only over rows it built it from.
  struct Rows {
    std::vector<std::size_t> offsets;
    std::vector<std::uint32_t> support;
    std::vector<double> values;
  } rows;

  /// The measurement-independent half of a warm start: the Cholesky
  /// factor of G[P, P] with the admissible columns of `list` appended (in
  /// list order, dependent and empty columns dropped). Admission reads
  /// only G, so solves that share G and warm-start from `list` (the
  /// bootstrap's replicates) copy the factor in O(k^2) instead of
  /// re-appending k columns in O(k^3), bit-identically. Filled by
  /// seed_warm_factor; rebuilding G drops it.
  struct WarmSeed {
    std::vector<std::size_t> list;
    std::vector<std::size_t> passive;  // admitted columns, factor order
    UpdatableCholesky chol;
  } warm;
};

/// Runs the warm-start admission of `warm` once and keeps its factor in
/// gs.warm. `warm` is read exactly as NnlsOptions::warm_start
/// (out-of-range, duplicate, empty-column and dependent entries are
/// dropped).
void seed_warm_factor(GramSystem& gs, const std::vector<std::size_t>& warm);

/// Solves min ||A x - b||_2 subject to x >= 0 from the Gram system of A
/// and b (the sparse solver front end builds it without ever materializing
/// A).
NnlsResult nnls_gram(const GramSystem& system, const NnlsOptions& options = {});

}  // namespace tomo::linalg
