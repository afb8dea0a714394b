// Exact L1 regression by a dense tableau simplex, for small/medium systems.
//
// l1_regression() solves    min ||A x - b||_1 + lambda ||x||_1, x >= 0
// by the standard split  A x + s+ - s- = b  with slack variables, which has
// a trivially feasible starting basis (no phase-1 needed).
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace tomo::linalg {

struct L1Result {
  Vector x;
  double objective = 0.0;  // ||Ax-b||_1 + lambda*||x||_1
  bool optimal = false;
};

/// Exact L1 regression with non-negativity: min ||Ax-b||_1 + lambda||x||_1,
/// x >= 0. lambda > 0 breaks ties toward small solutions (the paper's
/// "minimize the L1 norm error" fallback for under-determined systems).
L1Result l1_regression(const Matrix& a, const Vector& b, double lambda = 1e-6,
                       std::size_t max_iterations = 0);

}  // namespace tomo::linalg
