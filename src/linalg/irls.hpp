// Iteratively reweighted least squares (IRLS) approximation of L1
// regression: min ||A x - b||_1. Cheaper than the exact simplex LP; used in
// the solver ablation and as a fallback on systems too large for the LP.
#pragma once

#include "linalg/matrix.hpp"

namespace tomo::linalg {

struct IrlsResult {
  Vector x;
  double objective = 0.0;  // ||A x - b||_1
  std::size_t iterations = 0;  // reweighted solves run, at most the cap
  bool converged = false;
};

/// `epsilon` smooths the 1/|r| weights; `tol` is the relative change in the
/// L1 objective that counts as convergence.
IrlsResult irls_l1(const Matrix& a, const Vector& b,
                   std::size_t max_iterations = 50, double epsilon = 1e-8,
                   double tol = 1e-8);

}  // namespace tomo::linalg
