// linalg::UpdatableCholesky (stored by columns, blocked forward
// substitution, in-place Givens remove) against the row-packed factor it
// replaced, reference::PackedCholesky: every append must return the same
// verdict and every solve the same bits, after every edit of a seeded
// sequence of appends, removes, copies and clears.
#include <gtest/gtest.h>

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
    g_.assign(cols_ * cols_, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t i = 0; i < cols_; ++i) {
        if (a(r, i) == 0.0) continue;
        for (std::size_t j = 0; j < cols_; ++j) {
          g_[i * cols_ + j] += a(r, i) * a(r, j);
        }
      }
    }
  }

  std::size_t cols() const { return cols_; }
  double operator()(std::size_t i, std::size_t j) const {
    return g_[i * cols_ + j];
  }

 private:
  std::size_t cols_;
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

/// The production factor and the reference driven through the same edits
/// on the passive block G[P, P], compared after every one.
class Pair {
 public:
  Pair(const Gram& g, std::uint64_t seed) : g_(g), rng_(seed) {}

  std::size_t size() const { return passive_.size(); }
  bool passive(std::size_t j) const {
    for (const std::size_t p : passive_) {
      if (p == j) return true;
    }
    return false;
  }

  /// Appends column j of G to both factors; true if both accepted it.
  bool append(std::size_t j) {
    Vector cross(passive_.size());
    for (std::size_t q = 0; q < passive_.size(); ++q) {
      cross[q] = g_(passive_[q], j);
    }
    const bool accepted = fast_.append(cross, g_(j, j));
    EXPECT_EQ(accepted, ref_.append(cross, g_(j, j))) << "column " << j;
    if (accepted) passive_.push_back(j);
    check();
    return accepted;
  }

  void remove(std::size_t position) {
    fast_.remove(position);
    ref_.remove(position);
    passive_.erase(passive_.begin() + static_cast<std::ptrdiff_t>(position));
    check();
  }

  void clear() {
    fast_.clear();
    ref_.clear();
    passive_.clear();
    check();
  }

  /// Continues on a copy: assigned into a factor holding an older state,
  /// then back into the cleared original.
  void copy_assign() {
    stale_ = fast_;
    fast_.clear();
    fast_ = stale_;
    check();
  }

  void check() {
    ASSERT_EQ(fast_.size(), passive_.size());
    ASSERT_EQ(ref_.size(), passive_.size());
    Vector rhs(passive_.size());
    for (double& v : rhs) v = rng_.uniform(-1.0, 1.0);
    expect_same_bits(fast_.solve(rhs), ref_.solve(rhs));
  }

 private:
  const Gram& g_;
  Rng rng_;
  UpdatableCholesky fast_;
  UpdatableCholesky stale_;
  reference::PackedCholesky ref_;
  std::vector<std::size_t> passive_;
};

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
    Pair pair(g, seed);
    // Grow to a seed-dependent size, so the edits run at and across panel
    // edges and panel growths.
    const std::size_t start = 20 + rng.below(480);
    for (std::size_t j = 0; pair.size() < start && j < g.cols(); ++j) {
      pair.append(j);
    }
    for (int edit = 0; edit < 400; ++edit) {
      const std::uint64_t kind = rng.below(20);
      if (kind < 10) {
        std::size_t j = rng.below(g.cols());
        while (pair.passive(j)) j = (j + 1) % g.cols();
        pair.append(j);
      } else if (kind < 18 && pair.size() > 0) {
        const std::size_t k = pair.size();
        const std::size_t random = rng.below(k);
        const std::size_t positions[] = {0, k / 2, k - 1, random};
        pair.remove(positions[kind % 4]);
      } else if (kind == 18) {
        pair.copy_assign();
      } else if (edit % 3 == 0) {
        pair.clear();
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
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
