#include "reference/packed_cholesky.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tomo::reference {

PackedCholesky::PackedCholesky(std::size_t capacity) {
  l_.reserve(capacity * (capacity + 1) / 2);
}

bool PackedCholesky::append(const Vector& cross, double diag,
                            double rel_tol) {
  TOMO_REQUIRE(cross.size() == size_,
               "updatable cholesky: cross-term length mismatch");
  TOMO_REQUIRE(diag > 0.0, "updatable cholesky: non-positive diagonal");

  // Forward-substitute the new off-diagonal row: L row = cross.
  Vector row(size_);
  double row_norm2 = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    double sum = cross[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= at(i, k) * row[k];
    }
    row[i] = sum / at(i, i);
    row_norm2 += row[i] * row[i];
  }
  const double schur = diag - row_norm2;
  if (!(schur > rel_tol * diag)) {
    return false;  // numerically dependent on the factored columns
  }
  for (std::size_t i = 0; i < size_; ++i) {
    l_.push_back(row[i]);
  }
  l_.push_back(std::sqrt(schur));
  ++size_;
  return true;
}

void PackedCholesky::remove(std::size_t position) {
  TOMO_REQUIRE(position < size_, "updatable cholesky: remove out of range");

  // Drop row `position`; the trailing rows shift up one slot and keep their
  // old column count, leaving a lower-Hessenberg tail to re-triangularize.
  // Work on an unpacked copy of those rows for index clarity (k is small).
  const std::size_t tail = size_ - position - 1;
  std::vector<Vector> rows(tail);
  for (std::size_t i = 0; i < tail; ++i) {
    rows[i].resize(position + i + 2);
    for (std::size_t c = 0; c <= position + i + 1; ++c) {
      rows[i][c] = at(position + i + 1, c);
    }
  }
  // Givens rotations from the right: rotation j mixes columns j and j + 1,
  // zeroing rows[j - position][j + 1] against its diagonal.
  for (std::size_t j = position; j < position + tail; ++j) {
    const std::size_t r = j - position;
    const double a = rows[r][j];
    const double b = rows[r][j + 1];
    // b is the deleted-shift row's original diagonal (sqrt of a positive
    // Schur complement, untouched by the earlier rotations, which only
    // reach columns <= j), so the rotation is always well defined and the
    // new diagonal radius = hypot(a, b) stays positive.
    const double radius = std::hypot(a, b);
    TOMO_ASSERT(radius > 0.0);
    const double c = a / radius;
    const double s = b / radius;
    for (std::size_t i = r; i < tail; ++i) {
      const double u = rows[i][j];
      const double v = rows[i][j + 1];
      rows[i][j] = c * u + s * v;
      rows[i][j + 1] = c * v - s * u;
    }
  }
  // Repack: rows before `position` are untouched; each tail row drops its
  // (now zero) final entry.
  for (std::size_t i = 0; i < tail; ++i) {
    const std::size_t r = position + i;
    for (std::size_t c = 0; c <= r; ++c) {
      at(r, c) = rows[i][c];
    }
  }
  --size_;
  l_.resize(size_ * (size_ + 1) / 2);
}

Vector PackedCholesky::solve(const Vector& rhs) const {
  TOMO_REQUIRE(rhs.size() == size_,
               "updatable cholesky: solve rhs length mismatch");
  Vector y(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    double sum = rhs[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= at(i, k) * y[k];
    }
    y[i] = sum / at(i, i);
  }
  Vector z(size_);
  for (std::size_t i = size_; i-- > 0;) {
    double sum = y[i];
    for (std::size_t k = i + 1; k < size_; ++k) {
      sum -= at(k, i) * z[k];
    }
    z[i] = sum / at(i, i);
  }
  return z;
}

void PackedCholesky::clear() {
  l_.clear();
  size_ = 0;
}

}  // namespace tomo::reference
