#include "reference/exact_rank.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tomo::reference {

namespace {

constexpr std::uint64_t kP = ExactRankTracker::kModulus;

/// a·b mod p for a, b < p: with 2^61 = 1 (mod p) the product's high bits
/// fold onto its low 61, and the sum is below 2p.
std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 x = static_cast<unsigned __int128>(a) * b;
  const std::uint64_t r = static_cast<std::uint64_t>(x & kP) +
                          static_cast<std::uint64_t>(x >> 61);
  return r >= kP ? r - kP : r;
}

std::uint64_t sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + kP - b;
}

/// a^(p-2), the inverse of a != 0 (Fermat).
std::uint64_t inverse(std::uint64_t a) {
  std::uint64_t result = 1;
  for (std::uint64_t e = kP - 2; e != 0; e >>= 1) {
    if (e & 1) result = mul(result, a);
    a = mul(a, a);
  }
  return result;
}

}  // namespace

ExactRankTracker::ExactRankTracker(std::size_t dim)
    : dim_(dim), rows_(dim), scratch_(dim, 0) {
  TOMO_REQUIRE(dim > 0, "exact rank tracker needs a positive dimension");
}

bool ExactRankTracker::try_add_ones(
    const std::vector<std::size_t>& one_indices) {
  std::fill(scratch_.begin(), scratch_.end(), 0);
  for (std::size_t idx : one_indices) {
    TOMO_REQUIRE(idx < dim_, "exact rank tracker index out of range");
    TOMO_REQUIRE(scratch_[idx] == 0, "duplicate index in 0/1 row");
    scratch_[idx] = 1;
  }
  // Eliminate column by column, left to right: a basis row is zero before
  // its pivot, so clearing column c never touches a column left of c. The
  // first nonzero column without a pivot makes the row independent.
  for (std::size_t c = 0; c < dim_; ++c) {
    const std::uint64_t coeff = scratch_[c];
    if (coeff == 0) continue;
    const Row& row = rows_[c];
    if (row.cols.empty()) {
      const std::uint64_t scale = inverse(coeff);
      Row pivot_row;
      for (std::size_t k = c; k < dim_; ++k) {
        if (scratch_[k] == 0) continue;
        pivot_row.cols.push_back(k);
        pivot_row.vals.push_back(mul(scratch_[k], scale));
      }
      rows_[c] = std::move(pivot_row);
      ++rank_;
      return true;
    }
    for (std::size_t k = 0; k < row.cols.size(); ++k) {
      scratch_[row.cols[k]] =
          sub(scratch_[row.cols[k]], mul(coeff, row.vals[k]));
    }
  }
  return false;
}

}  // namespace tomo::reference
