#include "reference/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "linalg/qr.hpp"
#include "util/error.hpp"

namespace tomo::reference {

using linalg::Matrix;
using linalg::NnlsResult;
using linalg::Vector;

namespace {

/// Least squares restricted to the columns in `passive` (solution entries
/// for other columns are zero).
Vector restricted_least_squares(const Matrix& a, const Vector& b,
                                const std::vector<std::size_t>& passive) {
  Matrix sub(a.rows(), passive.size());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t j = 0; j < passive.size(); ++j) {
      sub(r, j) = a(r, passive[j]);
    }
  }
  const Vector z = linalg::least_squares(sub, b);
  Vector full(a.cols(), 0.0);
  for (std::size_t j = 0; j < passive.size(); ++j) {
    full[passive[j]] = z[j];
  }
  return full;
}

}  // namespace

DenseSystem densify(const linalg::SparseSystemView& view) {
  DenseSystem out{Matrix(view.rows.size(), view.cols),
                  Vector(view.rows.size())};
  for (std::size_t r = 0; r < view.rows.size(); ++r) {
    const linalg::SparseRow& row = view.rows[r];
    for (std::size_t k = 0; k < row.support_size; ++k) {
      out.a(r, row.support[k]) = row.value;
    }
    out.y[r] = row.y;
  }
  return out;
}

linalg::GramSystem make_gram(const Matrix& a, const Vector& b) {
  TOMO_REQUIRE(b.size() == a.rows(), "make_gram: rhs length mismatch");
  const std::size_t n = a.cols();
  Matrix dense(n, n);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_data(r);
    for (std::size_t i = 0; i < n; ++i) {
      if (row[i] == 0.0) continue;
      for (std::size_t j = i; j < n; ++j) {
        dense(i, j) += row[i] * row[j];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      dense(i, j) = dense(j, i);
    }
  }
  // Compressed to exactly its nonzeros, column by column.
  linalg::GramSystem gs;
  gs.gram.offsets.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      if (dense(i, j) == 0.0) continue;
      gs.gram.index.push_back(static_cast<std::uint32_t>(i));
      gs.gram.values.push_back(dense(i, j));
    }
    gs.gram.offsets[j + 1] = gs.gram.nnz();
  }
  gs.atb = a.multiply_transposed(b);
  gs.btb = linalg::dot(b, b);
  return gs;
}

NnlsResult nnls_dense(const Matrix& a, const Vector& b,
                      const linalg::NnlsOptions& options) {
  return linalg::nnls_gram(make_gram(a, b), options);
}

NnlsResult nnls_qr(const Matrix& a, const Vector& b,
                   std::size_t max_iterations, double tol) {
  TOMO_REQUIRE(b.size() == a.rows(), "nnls: rhs length mismatch");
  const std::size_t n = a.cols();
  if (max_iterations == 0) max_iterations = 3 * n + 10;

  NnlsResult result;
  result.x.assign(n, 0.0);
  std::vector<bool> in_passive(n, false);
  std::vector<std::size_t> passive;
  Vector w = a.multiply_transposed(linalg::residual(a, result.x, b));

  while (result.iterations < max_iterations) {
    // Optimality: all gradient components for active (zero) variables
    // non-positive.
    std::size_t best = n;
    double best_w = tol;
    for (std::size_t j = 0; j < n; ++j) {
      if (!in_passive[j] && w[j] > best_w) {
        best_w = w[j];
        best = j;
      }
    }
    if (best == n) {
      result.converged = true;
      break;
    }
    in_passive[best] = true;
    passive.push_back(best);

    // Inner loop: solve the unconstrained problem on the passive set and
    // clip variables that go negative.
    for (;;) {
      ++result.iterations;
      Vector z = restricted_least_squares(a, b, passive);
      bool all_positive = true;
      double alpha = std::numeric_limits<double>::infinity();
      for (std::size_t j : passive) {
        if (z[j] <= tol) {
          all_positive = false;
          const double denom = result.x[j] - z[j];
          if (denom > 0) alpha = std::min(alpha, result.x[j] / denom);
        }
      }
      if (all_positive) {
        result.x = std::move(z);
        break;
      }
      // Degenerate step: drop the offending variables outright.
      if (!std::isfinite(alpha)) alpha = 0.0;
      for (std::size_t j : passive) {
        result.x[j] += alpha * (z[j] - result.x[j]);
      }
      // Move variables that hit zero back to the active set.
      std::vector<std::size_t> still_passive;
      for (std::size_t j : passive) {
        if (result.x[j] > tol) {
          still_passive.push_back(j);
        } else {
          result.x[j] = 0.0;
          in_passive[j] = false;
        }
      }
      passive = std::move(still_passive);
      if (passive.empty()) break;
      if (result.iterations >= max_iterations) break;
    }

    w = a.multiply_transposed(linalg::residual(a, result.x, b));
  }

  result.residual_norm = linalg::norm2(linalg::residual(a, result.x, b));
  return result;
}

linalg::LogSystemSolution solve_log_system_qr(
    const linalg::SparseSystemView& view) {
  const DenseSystem dense = densify(view);
  Vector b(dense.y.size());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = -dense.y[i];
  const NnlsResult r = nnls_qr(dense.a, b);
  linalg::LogSystemSolution out;
  out.x.resize(r.x.size());
  for (std::size_t j = 0; j < r.x.size(); ++j) {
    out.x[j] = -std::max(0.0, r.x[j]);
  }
  out.residual_norm2 = linalg::norm2(linalg::residual(dense.a, out.x, dense.y));
  return out;
}

}  // namespace tomo::reference
