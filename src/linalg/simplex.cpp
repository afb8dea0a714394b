#include "linalg/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace tomo::linalg {

namespace {

constexpr double kPivotTol = 1e-9;

enum class LpStatus { kOptimal, kUnbounded, kIterationLimit };

/// Standard tableau simplex on  min c^T x, A x = b (b >= 0 expected),
/// starting from the given basis (basis[i] = column basic in row i, and the
/// tableau columns of the basis must form an identity).
class Tableau {
 public:
  Tableau(const Matrix& a, const Vector& b, const Vector& c,
          std::vector<std::size_t> basis)
      : m_(a.rows()), n_(a.cols()), t_(a.rows() + 1, a.cols() + 1),
        basis_(std::move(basis)) {
    TOMO_ASSERT(basis_.size() == m_);
    for (std::size_t i = 0; i < m_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) t_(i, j) = a(i, j);
      t_(i, n_) = b[i];
    }
    // Objective row: reduced costs c_j - c_B^T B^{-1} A_j. With an identity
    // starting basis, subtract c[basis[i]] * row_i from the cost row.
    for (std::size_t j = 0; j < n_; ++j) t_(m_, j) = c[j];
    t_(m_, n_) = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = c[basis_[i]];
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j <= n_; ++j) {
        t_(m_, j) -= cb * t_(i, j);
      }
    }
  }

  LpStatus run(std::size_t max_iterations, std::size_t& iterations) {
    for (; iterations < max_iterations; ++iterations) {
      // Dantzig rule with Bland fallback every 64 iterations to break
      // potential cycles on degenerate problems.
      const bool bland = (iterations % 64 == 63);
      std::size_t enter = n_;
      double best = -kPivotTol;
      for (std::size_t j = 0; j < n_; ++j) {
        const double rc = t_(m_, j);
        if (rc < best) {
          if (bland) {
            enter = j;
            break;
          }
          best = rc;
          enter = j;
        }
      }
      if (enter == n_) {
        return LpStatus::kOptimal;
      }
      // Ratio test.
      std::size_t leave = m_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < m_; ++i) {
        const double aij = t_(i, enter);
        if (aij > kPivotTol) {
          const double ratio = t_(i, n_) / aij;
          if (ratio < best_ratio - kPivotTol ||
              (ratio < best_ratio + kPivotTol && leave < m_ &&
               basis_[i] < basis_[leave])) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == m_) {
        return LpStatus::kUnbounded;
      }
      pivot(leave, enter);
    }
    return LpStatus::kIterationLimit;
  }

  Vector extract_solution() const {
    Vector x(n_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      x[basis_[i]] = t_(i, n_);
    }
    return x;
  }

  double objective() const { return -t_(m_, n_); }

 private:
  void pivot(std::size_t row, std::size_t col) {
    const double p = t_(row, col);
    TOMO_ASSERT(std::abs(p) > kPivotTol);
    for (std::size_t j = 0; j <= n_; ++j) t_(row, j) /= p;
    for (std::size_t i = 0; i <= m_; ++i) {
      if (i == row) continue;
      const double f = t_(i, col);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j <= n_; ++j) {
        t_(i, j) -= f * t_(row, j);
      }
      t_(i, col) = 0.0;
    }
    basis_[row] = col;
  }

  std::size_t m_, n_;
  Matrix t_;  // (m+1) x (n+1): constraint rows + cost row, rhs last column
  std::vector<std::size_t> basis_;
};

}  // namespace

L1Result l1_regression(const Matrix& a, const Vector& b, double lambda,
                       std::size_t max_iterations) {
  TOMO_REQUIRE(b.size() == a.rows(), "l1_regression: rhs length mismatch");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (max_iterations == 0) {
    max_iterations = 400 * (m + n) + 2000;
  }

  // Variables: [x (n), s+ (m), s- (m)];  A x + s+ - s- = b.
  // After flipping rows so b >= 0, the s+ columns form a feasible identity
  // basis, so a single simplex phase suffices.
  Matrix big(m, n + 2 * m);
  Vector b2 = b;
  Vector cost(n + 2 * m, 0.0);
  for (std::size_t j = 0; j < n; ++j) cost[j] = lambda;
  for (std::size_t j = n; j < n + 2 * m; ++j) cost[j] = 1.0;

  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) {
    const double sign = (b[i] < 0) ? -1.0 : 1.0;
    b2[i] = std::abs(b[i]);
    for (std::size_t j = 0; j < n; ++j) big(i, j) = sign * a(i, j);
    big(i, n + i) = sign;         // s+ column
    big(i, n + m + i) = -sign;    // s- column
    // After the flip, whichever slack column has coefficient +1 in this row
    // is basic: s+ for b_i >= 0, s- for b_i < 0.
    basis[i] = (sign > 0) ? n + i : n + m + i;
  }

  L1Result out;
  std::size_t iterations = 0;
  Tableau tab(big, b2, cost, basis);
  LpStatus status = tab.run(max_iterations, iterations);
  Vector full = tab.extract_solution();
  out.x.assign(full.begin(), full.begin() + static_cast<long>(n));
  out.objective = tab.objective();
  out.optimal = (status == LpStatus::kOptimal);
  return out;
}

}  // namespace tomo::linalg
