// Incremental row-space rank tracking.
//
// The tomography equation builder streams thousands of candidate equations
// (0/1 link-incidence rows) and must keep only rows that increase the rank
// of the system. RankTracker maintains a row-echelon basis keyed by pivot
// column; rejected candidates are the common case, so the basis rows are
// stored sparsely and candidates reduce through a sparse accumulator driven
// by a min-heap of touched pivot columns — each sweep costs O(fill-in)
// instead of O(rank · dim). Pivots are still eliminated in ascending column
// order with the exact same subtractions the historical dense sweep
// performed (entries a basis row does not store are exact zeros, whose
// subtraction was a no-op), so accept/reject decisions are bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tomo::linalg {

class RankTracker {
 public:
  explicit RankTracker(std::size_t dim);

  std::size_t dim() const { return dim_; }
  std::size_t rank() const { return basis_.size(); }
  bool full_rank() const { return rank() == dim_; }

  /// Returns true (and absorbs the row into the basis) iff the sparse 0/1
  /// row with ones at `one_indices` is linearly independent of the rows
  /// accepted so far. Duplicate indices in the input are an error.
  bool try_add_ones(const std::vector<std::size_t>& one_indices);

 private:
  /// Sparse row as parallel column/value arrays sorted by column, first
  /// entry the pivot (normalized to 1); exact zeros never stored. 32-bit
  /// columns halve the sweep's cache traffic (dim is far below 2^32).
  struct SparseRow {
    std::vector<std::uint32_t> cols;
    std::vector<double> vals;
  };

  static constexpr std::size_t kNoPivot = ~std::size_t{0};

  /// Reduces the scratch accumulator against the basis and absorbs it when
  /// independent; always leaves the scratch cleared.
  bool reduce_and_absorb();

  void clear_scratch();

  void touch(std::size_t col) {
    if (!touched_flag_[col]) {
      touched_flag_[col] = 1;
      touched_.push_back(col);
    }
  }

  std::size_t dim_;
  /// Basis rows in insertion order; pivot_index_ maps a pivot column to its
  /// row (kNoPivot when the column owns no basis row). Ascending-pivot
  /// processing comes from the reduction heap, not from storage order.
  std::vector<SparseRow> basis_;
  std::vector<std::size_t> pivot_index_;
  // Sparse accumulator, reused across calls: values_ holds the candidate
  // row on touched_ columns and exact zeros elsewhere; heap_ feeds the
  // reduction the touched pivot columns in ascending order.
  std::vector<double> values_;
  std::vector<std::uint8_t> touched_flag_;
  std::vector<std::size_t> touched_;
  std::vector<std::size_t> heap_;
};

}  // namespace tomo::linalg
