#include "linalg/updatable_cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace tomo::linalg {

void UpdatableCholesky::reserve_row(std::size_t q, std::size_t row) {
  const std::size_t need = row - q * kPanel + 1;
  const std::size_t old_ld = ld(q);
  if (need <= old_ld) return;
  const std::size_t new_ld = 8 * ((need + need / 4 + 7) / 8 | 1);
  std::vector<double> grown(kPanel * new_ld);
  for (std::size_t j = 0; j < kPanel; ++j) {
    std::copy_n(panels_[q].data() + j * old_ld, old_ld,
                grown.data() + j * new_ld);
  }
  panels_[q].swap(grown);
}

void UpdatableCholesky::forward(const double* b, double* y) const {
  std::copy_n(b, size_, y);
  // Right-looking over the columns: y[c] is final once every column left
  // of it has been subtracted, and column c then updates every later row.
  // Four columns run in lockstep: each later row subtracts all four, in
  // ascending order, in one pass over their contiguous runs.
  for (std::size_t first = 0, q = 0; first < size_; first += kPanel, ++q) {
    const std::size_t stride = ld(q);
    const std::size_t end = std::min(first + kPanel, size_);
    const double* col = panels_[q].data();  // column c's diagonal
    std::size_t c = first;
    for (; c + 4 <= end; c += 4, col += 4 * (stride + 1)) {
      // cj[t] = L(c + t, c + j).
      const double* c0 = col;
      const double* c1 = col + stride;
      const double* c2 = col + 2 * stride;
      const double* c3 = col + 3 * stride;
      const double y0 = y[c] / c0[0];
      const double y1 = (y[c + 1] - c0[1] * y0) / c1[1];
      const double y2 = ((y[c + 2] - c0[2] * y0) - c1[2] * y1) / c2[2];
      const double y3 =
          (((y[c + 3] - c0[3] * y0) - c1[3] * y1) - c2[3] * y2) / c3[3];
      y[c] = y0;
      y[c + 1] = y1;
      y[c + 2] = y2;
      y[c + 3] = y3;
      for (std::size_t t = 4; t < size_ - c; ++t) {
        const double r = ((y[c + t] - c0[t] * y0) - c1[t] * y1) - c2[t] * y2;
        y[c + t] = r - c3[t] * y3;
      }
    }
    for (; c < end; ++c, col += stride + 1) {
      const double yc = y[c] / col[0];
      y[c] = yc;
      for (std::size_t t = 1; t < size_ - c; ++t) y[c + t] -= col[t] * yc;
    }
  }
}

bool UpdatableCholesky::append(const Vector& cross, double diag,
                               double rel_tol) {
  TOMO_REQUIRE(cross.size() == size_,
               "updatable cholesky: cross-term length mismatch");
  TOMO_REQUIRE(diag > 0.0, "updatable cholesky: non-positive diagonal");

  // Forward-substitute the new off-diagonal row: L row = cross.
  Vector row(size_);
  forward(cross.data(), row.data());
  double row_norm2 = 0.0;
  for (const double v : row) row_norm2 += v * v;
  const double schur = diag - row_norm2;
  if (!(schur > rel_tol * diag)) {
    return false;  // numerically dependent on the factored columns
  }
  // Row k = size_ gets one entry per column, then the new diagonal.
  const std::size_t k = size_;
  const std::size_t last = k / kPanel;
  if (panels_.size() == last) panels_.emplace_back();
  for (std::size_t q = 0; q <= last; ++q) {
    reserve_row(q, k);
    const std::size_t stride = ld(q);
    const std::size_t first = q * kPanel;
    double* out = panels_[q].data() + (k - first);
    for (std::size_t c = first; c < std::min(first + kPanel, k);
         ++c, out += stride) {
      *out = row[c];
    }
    if (q == last) *out = std::sqrt(schur);
  }
  ++size_;
  return true;
}

void UpdatableCholesky::remove(std::size_t position) {
  TOMO_REQUIRE(position < size_, "updatable cholesky: remove out of range");
  const std::size_t k = size_;
  const auto diagonal = [&](std::size_t c) {
    const std::size_t q = c / kPanel, j = c % kPanel;
    return panels_[q].data() + j * ld(q) + j;
  };
  // Drop row `position` from the columns left of it: their later rows
  // shift up one slot.
  for (std::size_t c = 0; c < position; ++c) {
    double* at_row = diagonal(c) + (position - c);
    std::copy(at_row + 1, at_row + (k - position), at_row);
  }
  // The columns from `position` on now form a lower-Hessenberg tail.
  // Rotation j mixes columns j and j + 1 over rows j..k-2, zeroing the
  // entry above column j + 1's diagonal against column j's. Column j still
  // sits one slot low (slot 0 is row j - 1, or the deleted row), so it is
  // written back one slot up, which leaves it in place as the new column j.
  for (std::size_t j = position; j + 1 < k; ++j) {
    double* const left = diagonal(j);
    double* const right = diagonal(j + 1);
    const double a = left[1];
    const double b = right[0];
    // b is the deleted-shift row's original diagonal (sqrt of a positive
    // Schur complement, untouched by the earlier rotations, which only
    // reach columns <= j), so the rotation is always well defined and the
    // new diagonal radius = hypot(a, b) stays positive.
    const double radius = std::hypot(a, b);
    TOMO_ASSERT(radius > 0.0);
    const double c = a / radius;
    const double s = b / radius;
    for (std::size_t t = 0; t + 1 < k - j; ++t) {
      const double u = left[t + 1];
      const double v = right[t];
      left[t] = c * u + s * v;
      right[t] = c * v - s * u;
    }
  }
  --size_;
}

Vector UpdatableCholesky::solve(const Vector& rhs) const {
  TOMO_REQUIRE(rhs.size() == size_,
               "updatable cholesky: solve rhs length mismatch");
  Vector z(size_);
  forward(rhs.data(), z.data());
  // Back-substitution in place: column i read from its diagonal down.
  for (std::size_t i = size_; i-- > 0;) {
    const std::size_t q = i / kPanel, j = i % kPanel;
    const double* col = panels_[q].data() + j * ld(q) + j;
    double sum = z[i];
    for (std::size_t t = 1; t < size_ - i; ++t) {
      sum -= col[t] * z[i + t];
    }
    z[i] = sum / col[0];
  }
  return z;
}

void UpdatableCholesky::clear() { size_ = 0; }

}  // namespace tomo::linalg
