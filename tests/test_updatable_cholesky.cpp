// linalg::UpdatableCholesky (stored by columns, blocked forward
// substitution, in-place Givens remove, kept forward substitution and
// per-column nonzero masks) against the row-packed factor it replaced,
// reference::PackedCholesky: every append must return the same verdict
// and every solve the same bits, after every edit of a seeded sequence of
// appends, removes, copies and clears, and after bursts of edits with no
// solve between them, as the NNLS refactorizes or drops a batch of
// columns. The right-hand sides are random, or shaped like the NNLS's
// (c[P] for a fixed c, so the kept prefix is reused), or fixed per
// position (so only the factor's own bookkeeping says which kept rows an
// edit invalidated).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/updatable_cholesky.hpp"
#include "reference/packed_cholesky.hpp"
#include "util/rng.hpp"

namespace tomo::linalg {
namespace {

/// G = A^T W A for a sparse random A with positive weights, as the NNLS
/// Gram of path-incidence rows is, plus exact copies and sums of earlier
/// columns so that some appends are dependent and must be rejected.
class Gram {
 public:
  Gram(std::uint64_t seed, std::size_t rows, std::size_t independent)
      : cols_(independent + independent / 8) {
    Rng rng(seed);
    Matrix a(rows, cols_);
    for (std::size_t r = 0; r < rows; ++r) {
      const double weight = rng.uniform(0.5, 2.0);
      for (const std::size_t c :
           rng.sample_without_replacement(independent, 6 + rng.below(6))) {
        a(r, c) = weight;
      }
    }
    for (std::size_t c = independent; c < cols_; ++c) {
      const std::size_t x = rng.below(independent);
      const std::size_t y = rng.below(independent);
      for (std::size_t r = 0; r < rows; ++r) {
        a(r, c) = c % 2 == 0 ? a(r, x) : a(r, x) + a(r, y);
      }
    }
    accumulate(a);
  }

  /// Rows confined to blocks of `width` consecutive columns (`cols` is a
  /// multiple of `width`), as a path's links fall in ~2 correlation sets,
  /// and one row in eight spanning two neighbouring blocks: the fill stays
  /// local, so a factor of these columns, in any order, is mostly exact
  /// zeros below its diagonal.
  static Gram blocks(std::uint64_t seed, std::size_t cols, std::size_t width) {
    Rng rng(seed);
    Matrix a(3 * cols, cols);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      const double weight = rng.uniform(0.5, 2.0);
      // The first `cols` rows touch column r, so no column is empty.
      const std::size_t block =
          r < cols ? r / width : rng.below(cols / width);
      const bool spans = r % 8 == 7 && (block + 2) * width <= cols;
      const std::size_t span = spans ? 2 * width : width;
      if (r < cols) a(r, r) = weight;
      for (const std::size_t c :
           rng.sample_without_replacement(span, 1 + rng.below(3))) {
        a(r, block * width + c) = weight;
      }
    }
    Gram g;
    g.cols_ = cols;
    g.accumulate(a);
    return g;
  }

  /// G = L0 L0^T for a random integer lower-triangular L0: diagonal 1 to
  /// 3, each entry below it -1 or 1 with chance 1 / `density`, else 0.
  /// Appended in order, the factor is L0 bit for bit (every operation is
  /// exact integer arithmetic), so a zero of L0 where earlier columns fill
  /// in is an exact cancellation, not a structural zero, and a remove can
  /// make it nonzero again.
  static Gram integer_factor(std::uint64_t seed, std::size_t cols,
                             std::size_t density) {
    Rng rng(seed);
    Matrix l(cols, cols);
    for (std::size_t i = 0; i < cols; ++i) {
      l(i, i) = static_cast<double>(1 + rng.below(3));
      for (std::size_t j = 0; j < i; ++j) {
        if (rng.below(density) == 0) l(i, j) = rng.below(2) == 0 ? 1.0 : -1.0;
      }
    }
    Gram g;
    g.cols_ = cols;
    g.g_.assign(cols * cols, 0.0);
    for (std::size_t i = 0; i < cols; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t k = 0; k <= std::min(i, j); ++k) {
          g.g_[i * cols + j] += l(i, k) * l(j, k);
        }
      }
    }
    return g;
  }

  std::size_t cols() const { return cols_; }
  double operator()(std::size_t i, std::size_t j) const {
    return g_[i * cols_ + j];
  }

 private:
  Gram() = default;

  void accumulate(const Matrix& a) {
    g_.assign(cols_ * cols_, 0.0);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t i = 0; i < cols_; ++i) {
        if (a(r, i) == 0.0) continue;
        for (std::size_t j = 0; j < cols_; ++j) {
          g_[i * cols_ + j] += a(r, i) * a(r, j);
        }
      }
    }
  }

  std::size_t cols_ = 0;
  std::vector<double> g_;
};

void expect_same_bits(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "entry " << i << " of " << got.size() << ": " << got[i]
        << " vs " << want[i];
  }
}

/// How Pair::check builds its right-hand side.
enum class Rhs {
  kRandom,     // fresh random entries: every solve starts cold
  kColumns,    // c[P] for a fixed c over the columns, as the NNLS solves
  kPositions,  // a fixed value per passive position, whatever its column
};

/// Whether a Pair edit solves and compares right after it, or leaves that
/// to a later edit, as the NNLS makes several edits before one solve.
enum class Then { kCheck, kNext };

/// The production factor and the reference driven through the same edits
/// on the passive block G[P, P], compared after every one or every burst.
class Pair {
 public:
  Pair(const Gram& g, std::uint64_t seed, Rhs rhs = Rhs::kRandom)
      : g_(g), rng_(seed), rhs_(rhs) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      by_column_.push_back(rng_.uniform(0.5, 1.5));
      by_position_.push_back(rng_.uniform(-1.0, 1.0));
    }
  }

  std::size_t size() const { return passive_.size(); }
  const std::vector<std::size_t>& columns() const { return passive_; }
  bool passive(std::size_t j) const {
    for (const std::size_t p : passive_) {
      if (p == j) return true;
    }
    return false;
  }
  const reference::PackedCholesky& reference() const { return ref_; }

  /// Appends column j of G to both factors; true if both accepted it.
  bool append(std::size_t j, Then then = Then::kCheck) {
    Vector cross(passive_.size());
    for (std::size_t q = 0; q < passive_.size(); ++q) {
      cross[q] = g_(passive_[q], j);
    }
    const bool accepted = fast_.append(cross, g_(j, j));
    EXPECT_EQ(accepted, ref_.append(cross, g_(j, j))) << "column " << j;
    if (accepted) passive_.push_back(j);
    if (then == Then::kCheck) check();
    return accepted;
  }

  void remove(std::size_t position, Then then = Then::kCheck) {
    fast_.remove(position);
    ref_.remove(position);
    passive_.erase(passive_.begin() + static_cast<std::ptrdiff_t>(position));
    if (then == Then::kCheck) check();
  }

  void clear(Then then = Then::kCheck) {
    fast_.clear();
    ref_.clear();
    passive_.clear();
    if (then == Then::kCheck) check();
  }

  /// Continues on a copy: assigned into a factor holding an older state,
  /// then back into the cleared original.
  void copy_assign(Then then = Then::kCheck) {
    stale_ = fast_;
    fast_.clear();
    fast_ = stale_;
    if (then == Then::kCheck) check();
  }

  /// Changes the rhs entry of one passive position inside the kept prefix
  /// (its column's c, or its position's value), then checks.
  void perturb() {
    if (passive_.empty()) return;
    const std::size_t q = rng_.below(passive_.size());
    by_column_[passive_[q]] += 0.25;
    by_position_[q] -= 0.25;
    check();
  }

  /// A copy solves a different rhs; the original's kept state is its own.
  void solve_copy() {
    UpdatableCholesky copy = fast_;
    Vector rhs(passive_.size());
    for (double& v : rhs) v = rng_.uniform(-1.0, 1.0);
    expect_same_bits(copy.solve(rhs), ref_.solve(rhs));
    check();
  }

  void check() {
    ASSERT_EQ(fast_.size(), passive_.size());
    ASSERT_EQ(ref_.size(), passive_.size());
    Vector rhs(passive_.size());
    for (std::size_t q = 0; q < rhs.size(); ++q) {
      switch (rhs_) {
        case Rhs::kRandom: rhs[q] = rng_.uniform(-1.0, 1.0); break;
        case Rhs::kColumns: rhs[q] = by_column_[passive_[q]]; break;
        case Rhs::kPositions: rhs[q] = by_position_[q]; break;
      }
    }
    expect_same_bits(fast_.solve(rhs), ref_.solve(rhs));
  }

 private:
  const Gram& g_;
  Rng rng_;
  Rhs rhs_;
  std::vector<double> by_column_;
  std::vector<double> by_position_;
  UpdatableCholesky fast_;
  UpdatableCholesky stale_;
  reference::PackedCholesky ref_;
  std::vector<std::size_t> passive_;
};

/// Appends a random column of G that is not passive yet, if any.
void append_inactive(Pair& pair, const Gram& g, Rng& rng, Then then) {
  if (pair.size() == g.cols()) return;
  std::size_t j = rng.below(g.cols());
  while (pair.passive(j)) j = (j + 1) % g.cols();
  pair.append(j, then);
}

/// 2 to 8 edits, then one solve, of one of five shapes: a refactorization
/// (clear, then the passive columns again in order, so an NNLS-shaped rhs
/// keeps its prefix while L changes), a clear and fresh appends, removes
/// at descending positions (as the NNLS drops columns from the back),
/// removes at ascending positions, or a mix of appends, removes and
/// copies.
void burst(Pair& pair, const Gram& g, Rng& rng) {
  const std::size_t edits = 2 + rng.below(7);
  const std::size_t k = pair.size();
  switch (rng.below(5)) {
    case 0: {
      const std::vector<std::size_t> passive = pair.columns();
      pair.clear(Then::kNext);
      for (const std::size_t j : passive) pair.append(j, Then::kNext);
      break;
    }
    case 1:
      pair.clear(Then::kNext);
      for (std::size_t n = 0; n < edits; ++n) {
        append_inactive(pair, g, rng, Then::kNext);
      }
      break;
    case 2:
    case 3: {
      if (k < edits) break;
      std::vector<std::size_t> at = rng.sample_without_replacement(k, edits);
      std::sort(at.begin(), at.end());
      if (rng.below(2) == 0) {
        // Descending: each position is still where it was.
        for (std::size_t n = edits; n-- > 0;) pair.remove(at[n], Then::kNext);
      } else {
        // Ascending: the n earlier removes moved pick n down n places.
        for (std::size_t n = 0; n < edits; ++n) {
          pair.remove(at[n] - n, Then::kNext);
        }
      }
      break;
    }
    default:
      for (std::size_t n = 0; n < edits; ++n) {
        const std::uint64_t kind = rng.below(5);
        if (kind < 2 || pair.size() == 0) {
          append_inactive(pair, g, rng, Then::kNext);
        } else if (kind < 4) {
          pair.remove(rng.below(pair.size()), Then::kNext);
        } else {
          pair.copy_assign(Then::kNext);
        }
      }
      break;
  }
  pair.check();
}

/// A seeded mix of edits on `pair`: appends of random inactive columns,
/// removes at the first, middle, last and a random position, copies,
/// clears, rhs perturbations, solves on a copy, and bursts of edits with
/// one solve after them.
void edit_randomly(Pair& pair, const Gram& g, Rng& rng, int edits) {
  for (int edit = 0; edit < edits; ++edit) {
    const std::uint64_t kind = rng.below(28);
    if (kind < 10) {
      append_inactive(pair, g, rng, Then::kCheck);
    } else if (kind < 18 && pair.size() > 0) {
      const std::size_t k = pair.size();
      const std::size_t random = rng.below(k);
      const std::size_t positions[] = {0, k / 2, k - 1, random};
      pair.remove(positions[kind % 4]);
    } else if (kind == 18) {
      pair.copy_assign();
    } else if (kind == 19 && edit % 3 == 0) {
      pair.clear();
    } else if (kind < 22) {
      pair.perturb();
    } else if (kind < 24) {
      pair.solve_copy();
    } else {
      burst(pair, g, rng);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(UpdatableCholeskyDifferential, GrowsPastFiveHundredColumns) {
  const Gram g(101, 900, 560);
  Pair pair(g, 1);
  std::size_t rejected = 0;
  for (std::size_t j = 0; j < g.cols(); ++j) {
    if (!pair.append(j)) ++rejected;
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(pair.size(), 500u);
  EXPECT_GT(rejected, 0u);  // the copied and summed columns
}

TEST(UpdatableCholeskyDifferential, RemovesEveryPositionAroundThePanelWidth) {
  const Gram g(102, 160, 100);
  for (const std::size_t k : {31u, 32u, 33u, 63u, 64u, 65u, 97u}) {
    for (std::size_t position = 0; position < k; ++position) {
      Pair pair(g, k * 1000 + position);
      std::size_t j = 0;
      while (pair.size() < k) pair.append(j++);
      pair.remove(position);
      // The shifted tail must keep accepting edits.
      pair.append(j);
      pair.remove(pair.size() / 2);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(UpdatableCholeskyDifferential, SeededEditSequences) {
  const Gram g(103, 700, 540);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Pair pair(g, seed, seed % 3 == 0   ? Rhs::kRandom
                       : seed % 3 == 1 ? Rhs::kColumns
                                       : Rhs::kPositions);
    // Grow to a seed-dependent size, so the edits run at and across panel
    // edges and panel growths.
    const std::size_t start = 20 + rng.below(480);
    for (std::size_t j = 0; pair.size() < start && j < g.cols(); ++j) {
      pair.append(j);
    }
    edit_randomly(pair, g, rng, 400);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Share of L's entries below the diagonal that are exact zeros, and the
/// numbers of columns with fewer than half and with at least 7/8 of their
/// entries nonzero, read from the reference factor's entries: the
/// back-substitution walks mostly-empty and nearly full masks alike.
struct ZeroProfile {
  double zero_share = 0.0;
  std::size_t sparse = 0;
  std::size_t dense = 0;
};

ZeroProfile zero_profile(const reference::PackedCholesky& l) {
  ZeroProfile profile;
  std::size_t zeros = 0, entries = 0;
  for (std::size_t c = 0; c + 1 < l.size(); ++c) {
    std::size_t nonzeros = 0;
    const std::size_t length = l.size() - 1 - c;
    for (std::size_t r = c + 1; r < l.size(); ++r) {
      if (l.entry(r, c) != 0.0) ++nonzeros;
    }
    zeros += length - nonzeros;
    entries += length;
    if (2 * nonzeros < length) ++profile.sparse;
    if (8 * nonzeros >= 7 * length) ++profile.dense;
  }
  profile.zero_share =
      entries == 0 ? 0.0
                   : static_cast<double>(zeros) / static_cast<double>(entries);
  return profile;
}

TEST(UpdatableCholeskyDifferential, SparseFactorsWalkTheirMasks) {
  const Gram g = Gram::blocks(105, 416, 32);
  for (const Rhs rhs : {Rhs::kColumns, Rhs::kPositions, Rhs::kRandom}) {
    Rng rng(static_cast<std::uint64_t>(rhs) + 7);
    Pair pair(g, 50 + static_cast<std::uint64_t>(rhs), rhs);
    // Columns enter in a random order, as an NNLS admits them, across
    // every panel edge and growth up to k ~ 380; the last ones block by
    // block, so the trailing columns are dense.
    std::size_t next = 0;
    for (std::size_t n = 0; n < 380; ++n) {
      std::size_t j = n < 300 ? rng.below(g.cols()) : next;
      while (pair.passive(j)) j = (j + 1) % g.cols();
      next = (j + 1) % g.cols();
      pair.append(j);
      if (n % 16 == 5) pair.perturb();
      if (::testing::Test::HasFatalFailure()) return;
    }
    const ZeroProfile grown = zero_profile(pair.reference());
    // 62-72% zeros, as on the registry's factors, in sparse and dense
    // columns both.
    EXPECT_GT(grown.zero_share, 0.55) << "the fixture must be mostly zeros";
    EXPECT_GT(grown.sparse, 100u);
    EXPECT_GT(grown.dense, 100u);
    edit_randomly(pair, g, rng, 300);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(UpdatableCholeskyDifferential, RemovesRefillCancelledZeros) {
  // Without cancellations a rotated column's nonzeros are its right
  // neighbour's; here a remove can refill an exact-cancellation zero, so
  // only the union of the two masks a rotation mixes keeps every nonzero.
  const Gram g = Gram::integer_factor(107, 192, 6);
  for (const Rhs rhs : {Rhs::kColumns, Rhs::kPositions, Rhs::kRandom}) {
    Rng rng(static_cast<std::uint64_t>(rhs) + 11);
    Pair pair(g, 70 + static_cast<std::uint64_t>(rhs), rhs);
    for (std::size_t j = 0; j < g.cols(); ++j) ASSERT_TRUE(pair.append(j));
    EXPECT_GT(zero_profile(pair.reference()).zero_share, 0.5);
    edit_randomly(pair, g, rng, 200);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(UpdatableCholeskyDifferential, KeptRowsFollowEveryEdit) {
  // Per-position right-hand sides stay bitwise equal across edits, so only
  // the watermark can tell the factor which kept rows an edit touched.
  const Gram g = Gram::blocks(106, 198, 6);
  Pair pair(g, 6, Rhs::kPositions);
  std::size_t j = 0;
  while (pair.size() < 150) pair.append(j++);
  for (int edit = 0; edit < 3; ++edit) {
    const std::size_t k = pair.size();
    const std::size_t first_middle_last[] = {0, k / 2, k - 1};
    pair.remove(first_middle_last[edit]);
    pair.check();  // the same rhs again: nothing to recompute
    pair.append(j++);
    if (::testing::Test::HasFatalFailure()) return;
  }
  pair.copy_assign();
  pair.remove(pair.size() / 3);
  // Several edits before one solve. A refactorization after the removes
  // above rebuilds a drifted L with the rhs unchanged, so no kept row may
  // outlive the clear; removes at ascending positions rotate columns
  // below the first one's mark again.
  const std::vector<std::size_t> passive = pair.columns();
  pair.clear(Then::kNext);
  for (const std::size_t column : passive) pair.append(column, Then::kNext);
  pair.check();
  for (const std::size_t position : {20u, 50u, 90u, 91u, 120u}) {
    pair.remove(position, Then::kNext);
  }
  pair.check();
  pair.remove(pair.size() - 1, Then::kNext);
  pair.append(j++, Then::kNext);
  pair.remove(10, Then::kNext);
  pair.append(j++, Then::kNext);
  pair.check();
  pair.clear();
  for (std::size_t n = 0; n < 40; ++n) pair.append(n);
  pair.solve_copy();
  pair.remove(0);
  pair.remove(pair.size() - 1);
}

TEST(UpdatableCholeskyDifferential, RejectedAppendLeavesTheFactorUntouched) {
  const Gram g(104, 120, 64);
  Pair pair(g, 4);
  for (std::size_t j = 0; j < 64; ++j) ASSERT_TRUE(pair.append(j));
  // Every column past the independent ones copies or sums passive columns.
  for (std::size_t j = 64; j < g.cols(); ++j) {
    EXPECT_FALSE(pair.append(j)) << "column " << j;
  }
  EXPECT_EQ(pair.size(), 64u);
}

}  // namespace
}  // namespace tomo::linalg
