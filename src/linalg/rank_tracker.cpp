#include "linalg/rank_tracker.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "util/error.hpp"

namespace tomo::linalg {

namespace {
// 0/1 incidence rows keep entries O(1), so an absolute tolerance is sound.
constexpr double kTol = 1e-9;
}  // namespace

RankTracker::RankTracker(std::size_t dim)
    : dim_(dim),
      pivot_index_(dim, kNoPivot),
      values_(dim, 0.0),
      touched_flag_(dim, 0) {
  TOMO_REQUIRE(dim > 0, "rank tracker needs a positive dimension");
}

void RankTracker::clear_scratch() {
  for (std::size_t c : touched_) {
    values_[c] = 0.0;
    touched_flag_[c] = 0;
  }
  touched_.clear();
  heap_.clear();
}

bool RankTracker::reduce_and_absorb() {
  // Basis rows are in echelon form: a row's pivot column is its smallest
  // "owned" column, and subtracting it only perturbs columns >= that pivot.
  // Eliminating pivots in ascending column order therefore zeroes every
  // pivot column of the candidate in a single pass. The heap serves exactly
  // the candidate's touched pivot columns in that order: an untouched pivot
  // column holds an exact zero, which the historical dense sweep skipped
  // too, and columns first touched by an elimination at pivot c lie beyond
  // c, so pushing them preserves the ascending order.
  const auto greater = std::greater<std::size_t>();
  heap_.assign(touched_.begin(), touched_.end());
  std::erase_if(heap_,
                [&](std::size_t c) { return pivot_index_[c] == kNoPivot; });
  std::make_heap(heap_.begin(), heap_.end(), greater);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), greater);
    const std::size_t pivot_col = heap_.back();
    heap_.pop_back();
    const double coeff = values_[pivot_col];
    if (std::abs(coeff) <= kTol) continue;
    const SparseRow& basis_row = basis_[pivot_index_[pivot_col]];
    for (std::size_t k = 0; k < basis_row.cols.size(); ++k) {
      const std::size_t c = basis_row.cols[k];
      if (!touched_flag_[c]) {
        touched_flag_[c] = 1;
        touched_.push_back(c);
        if (pivot_index_[c] != kNoPivot) {
          heap_.push_back(c);
          std::push_heap(heap_.begin(), heap_.end(), greater);
        }
      }
      values_[c] -= coeff * basis_row.vals[k];
    }
    values_[pivot_col] = 0.0;
  }
  // The pivot must be the candidate's first non-negligible entry: the
  // echelon invariant (a basis row is zero before its pivot column) is what
  // makes the single ascending sweep above correct.
  std::size_t pivot = dim_;
  for (std::size_t c : touched_) {
    if (std::abs(values_[c]) > kTol && c < pivot) {
      pivot = c;
    }
  }
  if (pivot == dim_) {
    clear_scratch();
    return false;
  }
  std::sort(touched_.begin(), touched_.end());
  const double scale = values_[pivot];
  SparseRow row;
  row.cols.reserve(touched_.size());
  row.vals.reserve(touched_.size());
  for (std::size_t c : touched_) {
    // Entries before the pivot are below tolerance by construction; drop
    // them exactly so the echelon invariant holds bit-for-bit.
    if (c < pivot) continue;
    const double v = values_[c] / scale;
    if (v != 0.0) {
      row.cols.push_back(static_cast<std::uint32_t>(c));
      row.vals.push_back(v);
    }
  }
  pivot_index_[pivot] = basis_.size();
  basis_.push_back(std::move(row));
  clear_scratch();
  return true;
}

bool RankTracker::try_add_ones(const std::vector<std::size_t>& one_indices) {
  for (std::size_t idx : one_indices) {
    // Leave the accumulator clean before surfacing either error: the
    // scratch persists across calls, so a caller that catches the Error
    // and keeps using the tracker must not inherit phantom entries.
    if (idx >= dim_) {
      clear_scratch();
      TOMO_REQUIRE(false, "rank tracker index out of range");
    }
    if (touched_flag_[idx]) {
      clear_scratch();
      TOMO_REQUIRE(false, "duplicate index in 0/1 row");
    }
    touch(idx);
    values_[idx] = 1.0;
  }
  if (full_rank()) {
    clear_scratch();
    return false;
  }
  return reduce_and_absorb();
}

}  // namespace tomo::linalg
