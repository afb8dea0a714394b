#include "linalg/updatable_cholesky.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/error.hpp"

namespace tomo::linalg {

namespace {

/// Deletes bit `bit` of a mask holding `bits` bits (those past it clear):
/// the later bits move down one place.
void delete_bit(std::uint64_t* words, std::size_t bit, std::size_t bits) {
  std::size_t w = bit / 64;
  const std::size_t last = (bits - 1) / 64;
  const std::uint64_t below = (std::uint64_t{1} << (bit % 64)) - 1;
  std::uint64_t word = (words[w] & below) | ((words[w] >> 1) & ~below);
  for (; w < last; ++w) {
    const std::uint64_t next = words[w + 1];
    words[w] = word | next << 63;
    word = next >> 1;
  }
  words[w] = word;
}

/// The masks of rotation j in remove(). On entry `left` is the in-flight
/// column j's (bit b for new row j + b, `length` bits) and `right` column
/// j + 1's (bit b for row j + 1 + b, length - 1 bits). On exit `left` is
/// the new column j's and `right` the in-flight column j + 1's, both in
/// the next row's offsets: c u + s v and c v - s u are nonzero only where
/// u or v is, so each takes the union of the two, unless c = 0 (a swap),
/// when each takes one.
void rotate_masks(std::uint64_t* left, std::uint64_t* right,
                  std::size_t length, bool mixes) {
  const std::size_t words = (length + 63) / 64;
  const std::size_t out_words = (length + 62) / 64;
  for (std::size_t w = 0; w < out_words; ++w) {
    const std::uint64_t next = w + 1 < words ? left[w + 1] : 0;
    const std::uint64_t u = left[w] >> 1 | next << 63;
    const std::uint64_t v = right[w];
    left[w] = mixes ? u | v : v;
    right[w] = mixes ? u | v : u;
  }
  if (out_words < words) left[out_words] = 0;
}

}  // namespace

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
  const std::size_t old_words = mask_words(q);
  const std::size_t new_words = (new_ld + 63) / 64;
  if (new_words == old_words) return;
  std::vector<std::uint64_t> wider(kPanel * new_words);
  for (std::size_t j = 0; j < kPanel; ++j) {
    std::copy_n(masks_[q].data() + j * old_words, old_words,
                wider.data() + j * new_words);
  }
  masks_[q].swap(wider);
}

void UpdatableCholesky::subtract_prefix(double* y, std::size_t from) const {
  const std::size_t rows = size_ - from;
  if (rows == 0) return;
  double* const out = y + from;
  for (std::size_t q = 0; q * kPanel < from; ++q) {
    const std::size_t stride = ld(q);
    const std::size_t end = std::min((q + 1) * kPanel, from);
    std::size_t c = q * kPanel;
    // cj[t] = L(from + t, c + j): the four columns' runs from row `from`.
    for (; c + 4 <= end; c += 4) {
      const double* c0 = diagonal(c) + (from - c);
      const double* c1 = c0 + stride;
      const double* c2 = c1 + stride;
      const double* c3 = c2 + stride;
      const double y0 = y[c], y1 = y[c + 1], y2 = y[c + 2], y3 = y[c + 3];
      for (std::size_t t = 0; t < rows; ++t) {
        const double r = ((out[t] - c0[t] * y0) - c1[t] * y1) - c2[t] * y2;
        out[t] = r - c3[t] * y3;
      }
    }
    for (; c < end; ++c) {
      const double* c0 = diagonal(c) + (from - c);
      const double yc = y[c];
      for (std::size_t t = 0; t < rows; ++t) out[t] -= c0[t] * yc;
    }
  }
}

void UpdatableCholesky::sweep(double* y, std::size_t from) const {
  // Right-looking over the columns: y[c] is final once every column left
  // of it has been subtracted, and column c then updates every later row.
  // Four columns run in lockstep: each later row subtracts all four, in
  // ascending order, in one pass over their contiguous runs.
  for (std::size_t q = from / kPanel; q * kPanel < size_; ++q) {
    const std::size_t stride = ld(q);
    const std::size_t end = std::min((q + 1) * kPanel, size_);
    std::size_t c = std::max(from, q * kPanel);
    const double* col = diagonal(c);
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
      if (y0 == 0.0 && y1 == 0.0 && y2 == 0.0 && y3 == 0.0) continue;
      for (std::size_t t = 4; t < size_ - c; ++t) {
        const double r = ((y[c + t] - c0[t] * y0) - c1[t] * y1) - c2[t] * y2;
        y[c + t] = r - c3[t] * y3;
      }
    }
    for (; c < end; ++c, col += stride + 1) {
      const double yc = y[c] / col[0];
      y[c] = yc;
      if (yc == 0.0) continue;
      for (std::size_t t = 1; t < size_ - c; ++t) y[c + t] -= col[t] * yc;
    }
  }
}

bool UpdatableCholesky::append(const Vector& cross, double diag,
                               double rel_tol) {
  TOMO_REQUIRE(cross.size() == size_,
               "updatable cholesky: cross-term length mismatch");
  TOMO_REQUIRE(diag > 0.0, "updatable cholesky: non-positive diagonal");

  // Forward-substitute the new off-diagonal row: L row = cross. Rows
  // before cross's first nonzero are +0, and so are their terms.
  const std::size_t k = size_;
  Vector row(k);
  std::size_t first = 0;
  while (first < k && cross[first] == 0.0) ++first;
  std::copy(cross.begin() + static_cast<std::ptrdiff_t>(first), cross.end(),
            row.begin() + static_cast<std::ptrdiff_t>(first));
  sweep(row.data(), first);
  double row_norm2 = 0.0;
  for (const double v : row) row_norm2 += v * v;
  const double schur = diag - row_norm2;
  if (!(schur > rel_tol * diag)) {
    return false;  // numerically dependent on the factored columns
  }
  // Row k = size_ gets one entry (and one mask bit) per column, then the
  // new diagonal, whose column starts with an empty mask.
  const std::size_t last = k / kPanel;
  if (panels_.size() == last) {
    panels_.emplace_back();
    masks_.emplace_back();
  }
  for (std::size_t q = 0; q <= last; ++q) {
    reserve_row(q, k);
    const std::size_t stride = ld(q);
    const std::size_t words = mask_words(q);
    const std::size_t first_col = q * kPanel;
    double* out = panels_[q].data() + (k - first_col);
    std::uint64_t* bits = masks_[q].data();
    for (std::size_t c = first_col; c < std::min(first_col + kPanel, k);
         ++c, out += stride, bits += words) {
      *out = row[c];
      const std::size_t bit = k - 1 - c;
      bits[bit / 64] |= std::uint64_t{row[c] != 0.0} << (bit % 64);
    }
    if (q == last) *out = std::sqrt(schur);
  }
  std::fill_n(mask(k), mask_words(last), 0);
  ++size_;
  kept_rows_ = std::min(kept_rows_, k);
  return true;
}

void UpdatableCholesky::remove(std::size_t position) {
  TOMO_REQUIRE(position < size_, "updatable cholesky: remove out of range");
  const std::size_t k = size_;
  // Drop row `position` from the columns left of it: their later rows
  // shift up one slot, and so do their mask bits.
  for (std::size_t q = 0; q * kPanel < position; ++q) {
    const std::size_t words = mask_words(q);
    const std::size_t end = std::min((q + 1) * kPanel, position);
    std::uint64_t* bits = masks_[q].data();
    for (std::size_t c = q * kPanel; c < end; ++c, bits += words) {
      double* at_row = diagonal(c) + (position - c);
      std::copy(at_row + 1, at_row + (k - position), at_row);
      delete_bit(bits, position - 1 - c, k - 1 - c);
    }
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
    rotate_masks(mask(j), mask(j + 1), k - 1 - j, c != 0.0);
  }
  --size_;
  kept_rows_ = std::min(kept_rows_, position);
}

Vector UpdatableCholesky::solve(const Vector& rhs) {
  TOMO_REQUIRE(rhs.size() == size_,
               "updatable cholesky: solve rhs length mismatch");
  // Forward substitution, kept: y[0, from) still holds for this rhs.
  std::size_t from = 0;
  while (from < kept_rows_ && std::bit_cast<std::uint64_t>(rhs[from]) ==
                                  std::bit_cast<std::uint64_t>(kept_b_[from])) {
    ++from;
  }
  kept_b_ = rhs;
  kept_y_.resize(size_);
  std::copy(rhs.begin() + static_cast<std::ptrdiff_t>(from), rhs.end(),
            kept_y_.begin() + static_cast<std::ptrdiff_t>(from));
  subtract_prefix(kept_y_.data(), from);
  sweep(kept_y_.data(), from);
  kept_rows_ = size_;

  // Back-substitution on a copy: column i read from its diagonal down,
  // through its mask, so only its nonzeros enter the chain.
  Vector z = kept_y_;
  for (std::size_t i = size_; i-- > 0;) {
    const double* const col = diagonal(i);
    const std::size_t words = (size_ - 1 - i + 63) / 64;
    const std::uint64_t* const bits = mask(i);
    double sum = z[i];
    for (std::size_t w = 0; w < words; ++w) {
      const double* const lw = col + 1 + 64 * w;
      const double* const zw = z.data() + i + 1 + 64 * w;
      // Two set bits a trip: a taken branch per pair, not per term.
      std::uint64_t word = bits[w];
      while (word != 0) {
        unsigned b = static_cast<unsigned>(std::countr_zero(word));
        word &= word - 1;
        sum -= lw[b] * zw[b];
        if (word == 0) break;
        b = static_cast<unsigned>(std::countr_zero(word));
        word &= word - 1;
        sum -= lw[b] * zw[b];
      }
    }
    z[i] = sum / col[0];
  }
  return z;
}

void UpdatableCholesky::clear() {
  size_ = 0;
  kept_rows_ = 0;
}

}  // namespace tomo::linalg
