// Unified front end for solving the tomography log-domain linear system.
//
// The system is  A x = y  where rows of A are 0/1 link-incidence vectors
// (possibly row-scaled by variance weights), y_i = log P(paths of equation
// i all good) <= 0, and the unknowns x_k = log P(link k good) are
// constrained to x <= 0.
//
// Internally we substitute u = -x >= 0 and b = -y >= 0 so every solver
// works on a non-negative problem.
//
// The system arrives as a SparseSystemView. NNLS (the default) never
// materializes the dense matrix: the Gram products G = A^T A and
// c = A^T b are accumulated straight from the per-row support, fanned
// across a worker pool column-by-column, and G is stored by its nonzeros
// (linalg::SparseGram). Entry sums always run in row order, so the
// solution is bit-identical for any jobs value. The row-oriented kinds
// (ls, l1lp, irls) solve a dense copy of the view.
//
// A caller that solves a sequence of systems (the streaming driver's
// windows, the bootstrap's replicates) holds one GramSystem and passes it
// to every solve. The Gram system decides its own reuse: it records the
// rows G was built from and keeps G whenever the next view has bitwise
// the same rows, recomputing only the right-hand-side products.
//
// Every entry point checks the view first: a non-finite row value or
// right-hand side, or a support index outside the view's columns, throws a
// tomo::Error naming the row.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"

namespace tomo::linalg {

enum class SolverKind {
  kLeastSquares,  // QR least squares, then clamp to the feasible sign
  kNnls,          // Lawson-Hanson non-negative least squares (default)
  kL1Lp,          // exact L1 via simplex LP (small/medium systems)
  kIrls,          // IRLS approximation of L1
};

/// Parses "ls" | "nnls" | "l1lp" | "irls"; throws tomo::Error otherwise.
SolverKind solver_kind_from_string(const std::string& name);
std::string to_string(SolverKind kind);

/// Everything a caller can tune about the solve, threaded end to end from
/// core::InferenceOptions down to the engine.
struct SolverOptions {
  SolverKind kind = SolverKind::kNnls;
  /// Worker threads for the sparse Gram build (1 = inline on the caller,
  /// 0 = all hardware cores). The result is bit-identical for any value.
  std::size_t jobs = 1;
  /// NNLS warm start: column indices seeded into the passive set (normally
  /// the previous window's active_set in a streaming solve). Ignored by
  /// every other kind; safe to leave stale — see NnlsOptions::warm_start.
  std::vector<std::size_t> warm_start;
};

/// One equation row viewed sparsely: `value` on every column in
/// [support, support + support_size), zero elsewhere, with right-hand side
/// y. The pointed-at index array must be sorted and outlive the view.
struct SparseRow {
  const std::size_t* support = nullptr;
  std::size_t support_size = 0;
  double value = 1.0;
  double y = 0.0;
};

/// Borrowed sparse view of the equation system (the rows' index storage is
/// owned by the caller, e.g. core::EquationList's packed link array).
struct SparseSystemView {
  std::size_t cols = 0;
  std::vector<SparseRow> rows;
};

struct LogSystemSolution {
  Vector x;               // log P(link good), entries <= 0
  double residual_norm2;  // ||A x - y||_2 over the given equations
  std::string detail;     // solver-specific notes (iterations, status)
  /// Converged NNLS support, sorted ascending — the warm-start seed for
  /// the next window of a streaming solve. Empty for the other kinds.
  std::vector<std::size_t> active_set;
  /// The caller-held Gram system kept its G (only the right-hand-side
  /// products were recomputed). False for a one-shot solve and for the
  /// kinds that solve a dense copy.
  bool gram_reused = false;
};

/// Solves A x = y with x <= 0 using the requested solver. Row values and
/// `y` entries must be finite, and `y` <= 0 (equations with unusable
/// measurements should have been dropped by the caller). For NNLS the
/// Gram system is built directly from the row support (in parallel for
/// jobs > 1) and the dense matrix never exists.
LogSystemSolution solve_log_system(const SparseSystemView& system,
                                   const SolverOptions& options = {});

/// Brings `gs` up to date with the Gram system (G = A^T A, c = A^T b,
/// b^T b) of the *negated* system A u = -y over `system`'s rows, fanning
/// columns across up to `jobs` workers. When `gs` records bitwise the same
/// rows (supports and values) as `system`, G is kept and only c and b^T b
/// are recomputed, and the call returns true. Otherwise everything `gs`
/// held, warm seed included, is replaced by a fresh build over `system`,
/// whose rows it records, and the call returns false. Every entry sums its
/// column's incident rows in ascending row order, so either way the values
/// and index arrays are *bitwise* those solve_log_system builds
/// internally, for any jobs value.
bool accumulate_gram(GramSystem& gs, const SparseSystemView& system,
                     std::size_t jobs);

/// Solves with a caller-held Gram system. For NNLS, `gs` is first brought
/// up to date with accumulate_gram, so whatever it held before (another
/// system's Gram, or nothing) the result is bitwise
/// solve_log_system(system, options); an NNLS whose warm_start is the list
/// `gs` was seeded with (seed_warm_factor) copies the seeded factor. The
/// other kinds leave `gs` alone.
LogSystemSolution solve_log_system(const SparseSystemView& system,
                                   GramSystem& gs,
                                   const SolverOptions& options);

}  // namespace tomo::linalg
