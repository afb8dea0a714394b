// Dense reference solvers: the historical Lawson-Hanson NNLS that runs a
// fresh rank-revealing QR on the passive columns every inner iteration,
// the one-pass dense Gram build, and the dense copy of a sparse view the
// historical solver front end worked on. The production engine
// (linalg::nnls_gram on the sparse Gram) is pinned against them.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/nnls.hpp"
#include "linalg/solvers.hpp"

namespace tomo::reference {

/// A view's rows as a dense matrix (`value` on every support column) and
/// its right-hand sides.
struct DenseSystem {
  linalg::Matrix a;
  linalg::Vector y;
};
DenseSystem densify(const linalg::SparseSystemView& view);

/// G = A^T A, c = A^T b, b^T b of a dense problem: one pass over A into a
/// dense product, stored by exactly its nonzeros.
linalg::GramSystem make_gram(const linalg::Matrix& a,
                             const linalg::Vector& b);

/// min ||A x - b|| subject to x >= 0 for a general dense A, through the
/// production engine: nnls_gram(make_gram(a, b), options).
linalg::NnlsResult nnls_dense(const linalg::Matrix& a,
                              const linalg::Vector& b,
                              const linalg::NnlsOptions& options = {});

/// The historical engine. 0 iterations means the 3 * cols + 10 default.
linalg::NnlsResult nnls_qr(const linalg::Matrix& a, const linalg::Vector& b,
                           std::size_t max_iterations = 0,
                           double tol = 1e-10);

/// linalg::solve_log_system's NNLS contract — x = -max(0, u) for the NNLS
/// solution u of A u = -y, residual over the rows — computed by nnls_qr on
/// the densified view.
linalg::LogSystemSolution solve_log_system_qr(
    const linalg::SparseSystemView& view);

}  // namespace tomo::reference
