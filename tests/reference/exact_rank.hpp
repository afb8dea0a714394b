// Exact incremental rank over GF(p), p = 2^61 - 1: the reference for the
// verdicts of linalg::RankTracker, whose elimination runs in doubles with
// an absolute tolerance. A 0/1 row set independent over GF(p) is
// independent over the rationals; the converse fails only when p divides
// every maximal minor of the rows, which for the harvest's 0/1 incidence
// rows would take a minor of at least 2^61 that p happens to divide. So
// where the two trackers agree on a stream, the float verdicts are the
// exact ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tomo::reference {

class ExactRankTracker {
 public:
  static constexpr std::uint64_t kModulus = (std::uint64_t{1} << 61) - 1;

  explicit ExactRankTracker(std::size_t dim);

  std::size_t dim() const { return dim_; }
  std::size_t rank() const { return rank_; }
  bool full_rank() const { return rank_ == dim_; }

  /// Returns true (and absorbs the row into the basis) iff the 0/1 row
  /// with ones at `one_indices` is linearly independent over GF(p) of the
  /// rows accepted so far. Duplicate or out-of-range indices are an error.
  bool try_add_ones(const std::vector<std::size_t>& one_indices);

 private:
  /// A basis row's nonzeros by ascending column, the first its pivot
  /// (normalized to 1).
  struct Row {
    std::vector<std::size_t> cols;
    std::vector<std::uint64_t> vals;
  };

  std::size_t dim_;
  std::size_t rank_ = 0;
  /// rows_[c] is the basis row whose pivot is column c; empty when c is
  /// no pivot.
  std::vector<Row> rows_;
  std::vector<std::uint64_t> scratch_;  // the candidate, densely
};

}  // namespace tomo::reference
