#include "linalg/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "linalg/updatable_cholesky.hpp"
#include "util/error.hpp"

namespace tomo::linalg {

double SparseGram::operator()(std::size_t i, std::size_t j) const {
  TOMO_ASSERT(i < cols() && j < cols());
  const auto first = index.begin() + static_cast<std::ptrdiff_t>(offsets[j]);
  const auto last =
      index.begin() + static_cast<std::ptrdiff_t>(offsets[j + 1]);
  const auto it = std::lower_bound(first, last, i);
  return it != last && *it == i ? values[it - index.begin()] : 0.0;
}

namespace {

/// Dependence threshold of every factor append on this path; shared by
/// the warm-start admission and the solver so a seeded factor admits
/// exactly the columns an inline warm-up would.
constexpr double kSeedRelTol = 1e-12;

/// Gradient / positivity tolerance of the active-set logic.
constexpr double kTol = 1e-10;

/// Passive-position map entry of a column outside the passive set.
constexpr std::uint32_t kNotPassive =
    std::numeric_limits<std::uint32_t>::max();

/// Gathers G[P, j] from column j's stored entries: cross[pos[i]] = G(i, j)
/// for every stored row i with a passive position (pos[i] != kNotPassive),
/// 0 for the rest — the values a dense lookup of G(P[q], j) reads. Returns
/// G(j, j), 0 for a column no row touches.
double gather_column(const SparseGram& g,
                     const std::vector<std::uint32_t>& pos,
                     std::size_t passive_size, std::size_t j,
                     Vector& cross) {
  cross.assign(passive_size, 0.0);
  double diag = 0.0;
  for (std::size_t p = g.offsets[j]; p < g.offsets[j + 1]; ++p) {
    const std::size_t i = g.index[p];
    if (pos[i] != kNotPassive) cross[pos[i]] = g.values[p];
    if (i == j) diag = g.values[p];
  }
  return diag;
}

/// The warm-start admission: appends every valid, independent column of
/// `warm` to the empty factor `chol`, in list order, and lists the
/// admitted columns in `passive`.
void admit(const SparseGram& g, const std::vector<std::size_t>& warm,
           UpdatableCholesky& chol, std::vector<std::size_t>& passive) {
  std::vector<std::uint32_t> pos(g.cols(), kNotPassive);
  Vector cross;
  for (std::size_t j : warm) {
    if (j >= g.cols() || pos[j] != kNotPassive) continue;
    const double diag = gather_column(g, pos, passive.size(), j, cross);
    if (diag <= 0.0) continue;  // empty column
    if (!chol.append(cross, diag, kSeedRelTol)) {
      continue;  // dependent on the columns admitted so far; skip
    }
    pos[j] = static_cast<std::uint32_t>(passive.size());
    passive.push_back(j);
  }
}

/// Incremental Lawson-Hanson on a cached Gram system: the passive-set
/// normal-equations factor is edited in place (O(k^2) per change) instead
/// of being recomputed, so one inner iteration costs O(k^2) regardless of
/// the row count, and one outer iteration adds the passive columns' stored
/// entries for the gradient.
class IncrementalNnls {
 public:
  IncrementalNnls(const GramSystem& gs, std::size_t max_iterations,
                  const std::vector<std::size_t>& warm)
      : gs_(gs),
        n_(gs.gram.cols()),
        max_iterations_(max_iterations),
        warm_(warm),
        pos_(n_, kNotPassive),
        blocked_(n_, 0) {}

  NnlsResult run() {
    result_.x.assign(n_, 0.0);
    if (!warm_.empty()) warm_up();
    Vector w = gradient();

    while (result_.iterations < max_iterations_) {
      const std::size_t best = select(w);
      if (best == n_) {
        result_.converged = true;
        break;
      }
      if (!insert(best)) {
        // Numerically dependent on the current passive set even after a
        // refactorize: its gradient is a combination of the (zero) passive
        // gradients, so skipping it is safe. Blocked until the iterate
        // moves. The refactorize may have pruned drifted columns (x
        // changed), so the gradient is recomputed before reselecting.
        blocked_[best] = 1;
        w = gradient();
        continue;
      }
      inner_loop();
      w = gradient();
    }

    finish_residual(w);
    result_.active_set.assign(passive_.begin(), passive_.end());
    std::sort(result_.active_set.begin(), result_.active_set.end());
    return std::move(result_);
  }

 private:
  /// Seeds the passive set from a previous solve's support before the
  /// active-set loop starts. Two phases: admit every valid, independent
  /// seed column into the factor, then restore feasibility by solving the
  /// restricted problem and dropping non-positive components (back to
  /// front, editing the factor in place) until the restricted optimum is
  /// strictly feasible. From there the standard outer loop takes over with
  /// x already at the seeded set's optimum — when the seed matches the true
  /// support, the first gradient check certifies optimality immediately.
  /// The restoration solves are not counted as iterations: the passive set
  /// strictly shrinks each round, so the phase is bounded by the seed size.
  void warm_up() {
    if (gs_.warm.list == warm_) {
      // Adopt the seeded factor: bit-identical to admitting the list,
      // minus the O(k^3) appends.
      chol_ = gs_.warm.chol;
      passive_ = gs_.warm.passive;
    } else {
      admit(gs_.gram, warm_, chol_, passive_);
    }
    for (std::size_t q = 0; q < passive_.size(); ++q) {
      pos_[passive_[q]] = static_cast<std::uint32_t>(q);
    }
    while (!passive_.empty()) {
      Vector cp(passive_.size());
      for (std::size_t i = 0; i < passive_.size(); ++i) {
        cp[i] = gs_.atb[passive_[i]];
      }
      Vector z = chol_.solve(cp);
      if (!all_finite(z)) {
        // Factor poisoned by the seed; abandon it and start cold.
        chol_.clear();
        for (std::size_t j : passive_) pos_[j] = kNotPassive;
        passive_.clear();
        break;
      }
      bool feasible = true;
      for (std::size_t i = 0; i < passive_.size(); ++i) {
        if (z[i] <= kTol) feasible = false;
      }
      if (feasible) {
        for (std::size_t i = 0; i < passive_.size(); ++i) {
          result_.x[passive_[i]] = z[i];
        }
        break;
      }
      for (std::size_t i = passive_.size(); i-- > 0;) {
        if (z[i] <= kTol) drop(i);
      }
    }
  }

  /// w = c - G x over the passive columns' stored entries. Each w[i] sees
  /// the dense product's subtractions in the same (passive) order minus
  /// the skipped xj * 0 terms, which are exact zeros: x is finite here.
  Vector gradient() const {
    Vector w = gs_.atb;
    const SparseGram& g = gs_.gram;
    for (std::size_t j : passive_) {
      const double xj = result_.x[j];
      if (xj == 0.0) continue;
      for (std::size_t p = g.offsets[j]; p < g.offsets[j + 1]; ++p) {
        w[g.index[p]] -= xj * g.values[p];
      }
    }
    return w;
  }

  std::size_t select(const Vector& w) const {
    std::size_t best = n_;
    double best_w = kTol;
    for (std::size_t j = 0; j < n_; ++j) {
      if (pos_[j] == kNotPassive && !blocked_[j] && w[j] > best_w) {
        best_w = w[j];
        best = j;
      }
    }
    return best;
  }

  /// Rebuilds the factor of G[P, P] from scratch. Columns that no longer
  /// pass the dependence test are dropped from the passive set outright
  /// (x -> 0, blocked): the fallback for numerical drift after many edits.
  void refactorize() {
    ++result_.refactorizations;
    chol_.clear();
    for (std::size_t j : passive_) pos_[j] = kNotPassive;
    std::vector<std::size_t> kept;
    Vector cross;
    for (std::size_t j : passive_) {
      const double diag = gather_column(gs_.gram, pos_, kept.size(), j, cross);
      if (chol_.append(cross, diag, kRelTol)) {
        pos_[j] = static_cast<std::uint32_t>(kept.size());
        kept.push_back(j);
      } else {
        result_.x[j] = 0.0;
        blocked_[j] = 1;
      }
    }
    passive_ = std::move(kept);
  }

  bool insert(std::size_t j) {
    Vector cross;
    double diag = gather_column(gs_.gram, pos_, passive_.size(), j, cross);
    if (!chol_.append(cross, diag, kRelTol)) {
      refactorize();
      diag = gather_column(gs_.gram, pos_, passive_.size(), j, cross);
      if (!chol_.append(cross, diag, kRelTol)) {
        return false;
      }
    }
    pos_[j] = static_cast<std::uint32_t>(passive_.size());
    passive_.push_back(j);
    return true;
  }

  /// Returns passive position i to the active set: edits the factor in
  /// place and shifts the later positions down one.
  void drop(std::size_t i) {
    pos_[passive_[i]] = kNotPassive;
    chol_.remove(i);
    passive_.erase(passive_.begin() + static_cast<std::ptrdiff_t>(i));
    for (std::size_t q = i; q < passive_.size(); ++q) {
      pos_[passive_[q]] = static_cast<std::uint32_t>(q);
    }
  }

  void inner_loop() {
    for (;;) {
      ++result_.iterations;
      Vector cp(passive_.size());
      for (std::size_t i = 0; i < passive_.size(); ++i) {
        cp[i] = gs_.atb[passive_[i]];
      }
      Vector z = chol_.solve(cp);
      if (!all_finite(z)) {
        // Factor drifted into garbage: rebuild once and retry the solve.
        refactorize();
        cp.resize(passive_.size());
        for (std::size_t i = 0; i < passive_.size(); ++i) {
          cp[i] = gs_.atb[passive_[i]];
        }
        z = chol_.solve(cp);
        if (!all_finite(z)) break;  // give up on this passive set
      }

      bool all_positive = true;
      double alpha = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < passive_.size(); ++i) {
        if (z[i] <= kTol) {
          all_positive = false;
          const double xj = result_.x[passive_[i]];
          const double denom = xj - z[i];
          if (denom > 0) {
            alpha = std::min(alpha, xj / denom);
          }
        }
      }
      if (all_positive) {
        bool moved = false;
        for (std::size_t i = 0; i < passive_.size(); ++i) {
          moved |= result_.x[passive_[i]] != z[i];
          result_.x[passive_[i]] = z[i];
        }
        // Re-admit blocked columns only when the iterate actually moved: a
        // degenerate round ends by re-solving the shrunken passive set to
        // the bit-identical previous optimum, and unblocking there would
        // hand the gradient's argmax straight back to the same column.
        if (moved) unblock();
        break;
      }
      if (!std::isfinite(alpha)) alpha = 0.0;  // no clip bounds the step
      bool moved = false;
      for (std::size_t i = 0; i < passive_.size(); ++i) {
        const std::size_t j = passive_[i];
        const double stepped =
            result_.x[j] + alpha * (z[i] - result_.x[j]);
        moved |= stepped != result_.x[j];
        result_.x[j] = stepped;
      }
      // Move variables that hit zero back to the active set, editing the
      // factor from the back so earlier positions stay valid. A degenerate
      // step — one that left x bit-for-bit unchanged, whether alpha was
      // forced to 0 or rounded to no effect — blocks the dropped columns
      // from immediate re-entry; otherwise the same column would be
      // selected again forever (the anti-cycling safeguard: between real
      // moves, every iteration strictly shrinks the candidate pool).
      for (std::size_t i = passive_.size(); i-- > 0;) {
        const std::size_t j = passive_[i];
        if (result_.x[j] > kTol) continue;
        result_.x[j] = 0.0;
        if (!moved) blocked_[j] = 1;
        drop(i);
      }
      if (moved) unblock();
      if (passive_.empty()) break;
      if (result_.iterations >= max_iterations_) break;
    }
  }

  void unblock() { std::fill(blocked_.begin(), blocked_.end(), 0); }

  static bool all_finite(const Vector& v) {
    for (double x : v) {
      if (!std::isfinite(x)) return false;
    }
    return true;
  }

  /// ||A x - b||^2 = b^T b - 2 x^T c + x^T G x, with G x = c - w read off
  /// the gradient `w` at the final x: x is zero off the passive set, so
  /// x^T G x = sum over passive j of x_j (c_j - w_j), an O(k) sum.
  void finish_residual(const Vector& w) {
    double lin = 0.0, quad = 0.0;
    for (std::size_t j : passive_) {
      const double xj = result_.x[j];
      lin += xj * gs_.atb[j];
      quad += xj * (gs_.atb[j] - w[j]);
    }
    result_.residual_norm =
        std::sqrt(std::max(0.0, gs_.btb - 2.0 * lin + quad));
  }

  static constexpr double kRelTol = kSeedRelTol;

  const GramSystem& gs_;
  const std::size_t n_;
  const std::size_t max_iterations_;
  const std::vector<std::size_t>& warm_;
  NnlsResult result_;
  std::vector<std::size_t> passive_;
  std::vector<std::uint32_t> pos_;  // column -> passive position
  std::vector<std::uint8_t> blocked_;
  UpdatableCholesky chol_;
};

std::size_t resolve_iteration_cap(std::size_t requested, std::size_t cols) {
  return requested == 0 ? 3 * cols + 10 : requested;
}

}  // namespace

void seed_warm_factor(GramSystem& gs, const std::vector<std::size_t>& warm) {
  gs.warm = {warm, {}, {}};
  admit(gs.gram, gs.warm.list, gs.warm.chol, gs.warm.passive);
}

NnlsResult nnls_gram(const GramSystem& system, const NnlsOptions& options) {
  const SparseGram& g = system.gram;
  TOMO_REQUIRE(g.index.size() == g.values.size() &&
                   (g.offsets.empty() || g.offsets.back() == g.nnz()),
               "nnls_gram: malformed sparse gram");
  TOMO_REQUIRE(g.cols() < kNotPassive, "nnls_gram: too many columns");
  TOMO_REQUIRE(system.atb.size() == g.cols(),
               "nnls_gram: atb length mismatch");
  const std::size_t cap =
      resolve_iteration_cap(options.max_iterations, g.cols());
  return IncrementalNnls(system, cap, options.warm_start).run();
}

}  // namespace tomo::linalg
