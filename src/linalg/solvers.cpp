#include "linalg/solvers.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "linalg/irls.hpp"
#include "linalg/qr.hpp"
#include "linalg/simplex.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace tomo::linalg {

SolverKind solver_kind_from_string(const std::string& name) {
  if (name == "ls") return SolverKind::kLeastSquares;
  if (name == "nnls") return SolverKind::kNnls;
  if (name == "l1lp") return SolverKind::kL1Lp;
  if (name == "irls") return SolverKind::kIrls;
  throw Error("unknown solver '" + name + "' (expected ls|nnls|l1lp|irls)");
}

std::string to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kLeastSquares: return "ls";
    case SolverKind::kNnls: return "nnls";
    case SolverKind::kL1Lp: return "l1lp";
    case SolverKind::kIrls: return "irls";
  }
  return "?";
}

namespace {

/// The one pass every entry point makes over a view before using it: row
/// values and right-hand sides finite, and every support index inside the
/// view's columns (the Gram build, the dense copy and the residual all
/// index by it unchecked).
void check_view(const SparseSystemView& system, const char* who) {
  for (std::size_t r = 0; r < system.rows.size(); ++r) {
    const SparseRow& row = system.rows[r];
    TOMO_REQUIRE(std::isfinite(row.y) && std::isfinite(row.value),
                 std::string(who) + ": non-finite value or rhs in row " +
                     std::to_string(r));
    for (std::size_t k = 0; k < row.support_size; ++k) {
      TOMO_REQUIRE(row.support[k] < system.cols,
                   std::string(who) + ": row " + std::to_string(r) +
                       " has support index " +
                       std::to_string(row.support[k]) + " outside its " +
                       std::to_string(system.cols) + " columns");
    }
  }
}

/// Back-substitutes u = -x and clamps to the feasible domain
/// (log-probabilities of "good" are <= 0).
LogSystemSolution finish(Vector u, std::ostringstream& detail) {
  LogSystemSolution out;
  out.x.resize(u.size());
  for (std::size_t j = 0; j < u.size(); ++j) {
    out.x[j] = -std::max(0.0, u[j]);
  }
  out.detail = detail.str();
  return out;
}

/// The row-oriented kinds (ls, l1lp, irls) on a dense copy of the view.
LogSystemSolution solve_dense(const SparseSystemView& system,
                              const SolverOptions& options) {
  Matrix a(system.rows.size(), system.cols);
  Vector y(system.rows.size());
  for (std::size_t r = 0; r < system.rows.size(); ++r) {
    const SparseRow& row = system.rows[r];
    double* dense = a.row_data(r);
    for (std::size_t k = 0; k < row.support_size; ++k) {
      dense[row.support[k]] = row.value;
    }
    y[r] = row.y;
  }

  // u = -x >= 0, b = -y >= 0.
  Vector b(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) b[i] = -y[i];

  std::ostringstream detail;
  Vector u;
  switch (options.kind) {
    case SolverKind::kLeastSquares: {
      u = least_squares(a, b);
      detail << "qr-ls";
      break;
    }
    case SolverKind::kL1Lp: {
      L1Result r = l1_regression(a, b);
      u = std::move(r.x);
      detail << "l1lp obj=" << r.objective
             << (r.optimal ? "" : " (not proven optimal)");
      break;
    }
    case SolverKind::kIrls: {
      IrlsResult r = irls_l1(a, b);
      u = std::move(r.x);
      detail << "irls iters=" << r.iterations
             << (r.converged ? "" : " (iteration cap)");
      break;
    }
    case SolverKind::kNnls:
      TOMO_ASSERT(false);  // solved on the Gram system, never densified
  }

  LogSystemSolution out = finish(std::move(u), detail);
  out.residual_norm2 = norm2(residual(a, out.x, y));
  return out;
}

/// ||A x - y|| from the sparse rows (x is the clamped solution).
double sparse_residual_norm(const SparseSystemView& system, const Vector& x) {
  double norm = 0.0;
  for (const SparseRow& row : system.rows) {
    double ax = 0.0;
    for (std::size_t k = 0; k < row.support_size; ++k) {
      ax += x[row.support[k]];
    }
    const double r = row.value * ax - row.y;
    norm += r * r;
  }
  return std::sqrt(norm);
}

/// NNLS on a (caller- or locally-built) Gram system: solve, clamp, recover
/// the residual from the rows.
LogSystemSolution solve_nnls(const SparseSystemView& system,
                             const GramSystem& gs,
                             const SolverOptions& options) {
  NnlsOptions nnls_options;
  nnls_options.warm_start = options.warm_start;
  NnlsResult r = nnls_gram(gs, nnls_options);
  std::ostringstream detail;
  detail << "nnls[inc] iters=" << r.iterations
         << " refactor=" << r.refactorizations;
  if (!r.converged) detail << " (iteration cap)";
  if (!options.warm_start.empty()) {
    detail << " warm=" << options.warm_start.size();
  }
  LogSystemSolution out = finish(std::move(r.x), detail);
  out.active_set = std::move(r.active_set);
  out.residual_norm2 = sparse_residual_norm(system, out.x);
  return out;
}

/// Column -> incident-row adjacency, so each Gram row can be accumulated
/// independently (and hence in parallel) while every entry's sum still
/// runs in ascending row order — the jobs-invariance contract.
struct ColumnAdjacency {
  std::vector<std::size_t> offsets;       // cols + 1 prefix sums
  std::vector<std::uint32_t> incident;    // row ids, ascending per column
};

ColumnAdjacency column_adjacency(const SparseSystemView& system) {
  const std::size_t n = system.cols;
  ColumnAdjacency adj;
  std::vector<std::size_t> counts(n, 0);
  for (const SparseRow& row : system.rows) {
    for (std::size_t k = 0; k < row.support_size; ++k) {
      ++counts[row.support[k]];
    }
  }
  adj.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    adj.offsets[i + 1] = adj.offsets[i] + counts[i];
  }
  adj.incident.resize(adj.offsets[n]);
  std::vector<std::size_t> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (std::size_t r = 0; r < system.rows.size(); ++r) {
    const SparseRow& row = system.rows[r];
    for (std::size_t k = 0; k < row.support_size; ++k) {
      adj.incident[cursor[row.support[k]]++] = static_cast<std::uint32_t>(r);
    }
  }
  return adj;
}

/// Workspace that builds one Gram column at a time: a dense accumulator
/// and a bitmap of the indices the current column touched, both all-zero
/// between columns.
class ColumnScatter {
 public:
  explicit ColumnScatter(std::size_t n)
      : acc_(n, 0.0), words_((n + 63) / 64, 0) {}

  /// Accumulates column i of G: v^2 for every (incident row, support
  /// index) pair in ascending row order — each entry's addition sequence
  /// of a dense build.
  void gather(const SparseSystemView& system, const ColumnAdjacency& adj,
              std::size_t i) {
    for (std::size_t slot = adj.offsets[i]; slot < adj.offsets[i + 1];
         ++slot) {
      const SparseRow& row = system.rows[adj.incident[slot]];
      const double v2 = row.value * row.value;
      for (std::size_t k = 0; k < row.support_size; ++k) {
        touch(row.support[k]);
        acc_[row.support[k]] += v2;
      }
    }
  }

  /// Appends the gathered entries in ascending index order — a scan of the
  /// bitmap words between the lowest and highest touched — clears the
  /// workspace, and returns how many entries it appended.
  std::size_t emit(std::vector<std::uint32_t>& index,
                   std::vector<double>& values) {
    const std::size_t before = index.size();
    for (std::size_t w = lo_; w < hi_; ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t k =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        index.push_back(static_cast<std::uint32_t>(k));
        values.push_back(acc_[k]);
        acc_[k] = 0.0;
      }
      words_[w] = 0;
    }
    lo_ = std::numeric_limits<std::size_t>::max();
    hi_ = 0;
    return index.size() - before;
  }

 private:
  void touch(std::size_t k) {
    words_[k / 64] |= std::uint64_t{1} << (k % 64);
    lo_ = std::min(lo_, k / 64);
    hi_ = std::max(hi_, k / 64 + 1);
  }

  std::vector<double> acc_;
  std::vector<std::uint64_t> words_;
  std::size_t lo_ = std::numeric_limits<std::size_t>::max();
  std::size_t hi_ = 0;  // one past the highest touched word
};

/// The right-hand-side products of the negated system A u = -y: c = A^T b,
/// each entry summed over its column's incident rows in ascending row
/// order (the same bits for any jobs value), and b^T b.
void build_rhs(GramSystem& gs, const SparseSystemView& system,
               const ColumnAdjacency& adj, std::size_t jobs) {
  gs.atb.assign(system.cols, 0.0);
  util::parallel_for(jobs, system.cols, [&](std::size_t i) {
    double ci = 0.0;
    for (std::size_t slot = adj.offsets[i]; slot < adj.offsets[i + 1];
         ++slot) {
      const SparseRow& row = system.rows[adj.incident[slot]];
      // b = -y: the solvers run on the negated non-negative system.
      ci += row.value * -row.y;
    }
    gs.atb[i] = ci;
  });
  gs.btb = 0.0;
  for (const SparseRow& row : system.rows) {
    gs.btb += row.y * row.y;
  }
}

/// A fresh build of G, c and b^T b over `system` into `gs` (its recorded
/// rows and warm seed untouched), minus the view check (its callers made
/// it).
void build_gram(GramSystem& gs, const SparseSystemView& system,
                std::size_t jobs) {
  const std::size_t n = system.cols;
  TOMO_REQUIRE(n < std::numeric_limits<std::uint32_t>::max(),
               "accumulate_gram: too many columns");

  // Columns go out in contiguous blocks, each with one workspace and its
  // own output buffers; laying the blocks end to end afterwards gives the
  // same arrays for any jobs value.
  const ColumnAdjacency adj = column_adjacency(system);
  const std::size_t workers = util::resolve_jobs(jobs);
  const std::size_t blocks = std::min(n, workers == 1 ? 1 : 8 * workers);
  const auto first_column = [&](std::size_t b) { return b * n / blocks; };
  std::vector<SparseGram> parts(blocks);  // index/values of each block
  SparseGram gram;
  gram.offsets.assign(n + 1, 0);
  util::parallel_for(jobs, blocks, [&](std::size_t b) {
    ColumnScatter scatter(n);
    for (std::size_t i = first_column(b); i < first_column(b + 1); ++i) {
      scatter.gather(system, adj, i);
      gram.offsets[i + 1] = scatter.emit(parts[b].index, parts[b].values);
    }
  });
  for (std::size_t i = 0; i < n; ++i) gram.offsets[i + 1] += gram.offsets[i];
  gram.index.resize(gram.offsets[n]);
  gram.values.resize(gram.offsets[n]);
  util::parallel_for(jobs, blocks, [&](std::size_t b) {
    const std::size_t at = gram.offsets[first_column(b)];
    std::copy(parts[b].index.begin(), parts[b].index.end(),
              gram.index.begin() + static_cast<std::ptrdiff_t>(at));
    std::copy(parts[b].values.begin(), parts[b].values.end(),
              gram.values.begin() + static_cast<std::ptrdiff_t>(at));
  });
  gs.gram = std::move(gram);
  build_rhs(gs, system, adj, jobs);
}

/// True iff `gs` records bitwise `system`'s rows, so its G is theirs.
bool built_from(const GramSystem& gs, const SparseSystemView& system) {
  const GramSystem::Rows& rows = gs.rows;
  if (gs.gram.cols() != system.cols ||
      rows.offsets.size() != system.rows.size() + 1) {
    return false;
  }
  for (std::size_t r = 0; r < system.rows.size(); ++r) {
    const SparseRow& row = system.rows[r];
    const auto first =
        rows.support.begin() + static_cast<std::ptrdiff_t>(rows.offsets[r]);
    if (rows.offsets[r + 1] - rows.offsets[r] != row.support_size ||
        std::bit_cast<std::uint64_t>(rows.values[r]) !=
            std::bit_cast<std::uint64_t>(row.value) ||
        !std::equal(row.support, row.support + row.support_size, first)) {
      return false;
    }
  }
  return true;
}

/// `system`'s rows as GramSystem::Rows, every array allocated exactly.
GramSystem::Rows record_rows(const SparseSystemView& system) {
  GramSystem::Rows rows;
  rows.offsets.reserve(system.rows.size() + 1);
  rows.values.reserve(system.rows.size());
  rows.offsets.push_back(0);
  for (const SparseRow& row : system.rows) {
    rows.offsets.push_back(rows.offsets.back() + row.support_size);
    rows.values.push_back(row.value);
  }
  rows.support.reserve(rows.offsets.back());
  for (const SparseRow& row : system.rows) {
    rows.support.insert(rows.support.end(), row.support,
                        row.support + row.support_size);
  }
  return rows;
}

/// accumulate_gram minus the view check (its callers made it).
bool update_gram(GramSystem& gs, const SparseSystemView& system,
                 std::size_t jobs) {
  if (built_from(gs, system)) {
    build_rhs(gs, system, column_adjacency(system), jobs);
    return true;
  }
  build_gram(gs, system, jobs);
  gs.rows = record_rows(system);
  gs.warm = {};
  return false;
}

}  // namespace

bool accumulate_gram(GramSystem& gs, const SparseSystemView& system,
                     std::size_t jobs) {
  check_view(system, "accumulate_gram");
  return update_gram(gs, system, jobs);
}

LogSystemSolution solve_log_system(const SparseSystemView& system,
                                   const SolverOptions& options) {
  check_view(system, "solve_log_system");
  if (options.kind != SolverKind::kNnls) return solve_dense(system, options);
  // The headline path: Gram products straight from the sparse support;
  // neither the dense incidence matrix nor a dense Gram ever exists. The
  // local Gram system records no rows: nothing solves on it again.
  GramSystem gs;
  build_gram(gs, system, options.jobs);
  return solve_nnls(system, gs, options);
}

LogSystemSolution solve_log_system(const SparseSystemView& system,
                                   GramSystem& gs,
                                   const SolverOptions& options) {
  check_view(system, "solve_log_system");
  if (options.kind != SolverKind::kNnls) return solve_dense(system, options);
  const bool reused = update_gram(gs, system, options.jobs);
  LogSystemSolution out = solve_nnls(system, gs, options);
  out.gram_reused = reused;
  return out;
}

}  // namespace tomo::linalg
