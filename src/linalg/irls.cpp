#include "linalg/irls.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/qr.hpp"
#include "util/error.hpp"

namespace tomo::linalg {

IrlsResult irls_l1(const Matrix& a, const Vector& b,
                   std::size_t max_iterations, double epsilon, double tol) {
  TOMO_REQUIRE(b.size() == a.rows(), "irls: rhs length mismatch");
  const std::size_t m = a.rows();

  IrlsResult result;
  result.x = least_squares(a, b);
  result.objective = norm1(residual(a, result.x, b));

  while (result.iterations < max_iterations) {
    ++result.iterations;
    const Vector r = residual(a, result.x, b);
    // Weighted least squares with w_i = 1/max(|r_i|, eps): scale each row
    // and the rhs by sqrt(w_i).
    Matrix aw(m, a.cols());
    Vector bw(m);
    for (std::size_t i = 0; i < m; ++i) {
      const double w = 1.0 / std::max(std::abs(r[i]), epsilon);
      const double s = std::sqrt(w);
      for (std::size_t j = 0; j < a.cols(); ++j) {
        aw(i, j) = s * a(i, j);
      }
      bw[i] = s * b[i];
    }
    Vector x_next = least_squares(aw, bw);
    const double obj_next = norm1(residual(a, x_next, b));
    const double improvement = result.objective - obj_next;
    if (obj_next < result.objective) {
      result.x = std::move(x_next);
      result.objective = obj_next;
    }
    if (std::abs(improvement) <=
        tol * std::max(1.0, result.objective)) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace tomo::linalg
