#include "linalg/nnls.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "linalg/updatable_cholesky.hpp"
#include "util/error.hpp"

namespace tomo::linalg {

namespace {

/// Dependence threshold of every factor append on this path; shared by
/// seed_warm_factor and the solver so a cached seed admits exactly the
/// columns an inline warm-up would.
constexpr double kSeedRelTol = 1e-12;

/// Incremental Lawson-Hanson on a cached Gram system: the passive-set
/// normal-equations factor is edited in place (O(k^2) per change) instead
/// of being recomputed, so one inner iteration costs O(k^2) regardless of
/// the row count.
class IncrementalNnls {
 public:
  IncrementalNnls(const GramSystem& gs, std::size_t max_iterations,
                  double tol, const std::vector<std::size_t>& warm,
                  const NnlsWarmFactor* cached)
      : gs_(gs),
        n_(gs.gram.cols()),
        max_iterations_(max_iterations),
        tol_(tol),
        warm_(warm),
        cached_(cached),
        in_passive_(n_, 0),
        blocked_(n_, 0),
        chol_(n_) {}

  NnlsResult run() {
    result_.x.assign(n_, 0.0);
    if (cached_ != nullptr || !warm_.empty()) warm_up();
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

    finish_residual();
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
    if (cached_ != nullptr) {
      // Adopt the pre-factored seed: bit-identical to running the
      // admission loop below, minus the O(k^3) appends.
      chol_ = cached_->chol;
      passive_ = cached_->passive;
      for (std::size_t j : passive_) in_passive_[j] = 1;
    } else {
      NnlsWarmFactor seeded = seed_warm_factor(gs_, warm_);
      chol_ = std::move(seeded.chol);
      passive_ = std::move(seeded.passive);
      for (std::size_t j : passive_) in_passive_[j] = 1;
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
        for (std::size_t j : passive_) in_passive_[j] = 0;
        passive_.clear();
        break;
      }
      bool feasible = true;
      for (std::size_t i = 0; i < passive_.size(); ++i) {
        if (z[i] <= tol_) feasible = false;
      }
      if (feasible) {
        for (std::size_t i = 0; i < passive_.size(); ++i) {
          result_.x[passive_[i]] = z[i];
        }
        break;
      }
      for (std::size_t i = passive_.size(); i-- > 0;) {
        if (z[i] > tol_) continue;
        in_passive_[passive_[i]] = 0;
        chol_.remove(i);
        passive_.erase(passive_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  /// w = c - G x, using only the non-zero (passive) entries of x.
  Vector gradient() const {
    Vector w = gs_.atb;
    for (std::size_t j : passive_) {
      const double xj = result_.x[j];
      if (xj == 0.0) continue;
      const double* row = gs_.gram.row_data(j);  // row j == column j
      for (std::size_t i = 0; i < n_; ++i) {
        w[i] -= xj * row[i];
      }
    }
    return w;
  }

  std::size_t select(const Vector& w) const {
    std::size_t best = n_;
    double best_w = tol_;
    for (std::size_t j = 0; j < n_; ++j) {
      if (!in_passive_[j] && !blocked_[j] && w[j] > best_w) {
        best_w = w[j];
        best = j;
      }
    }
    return best;
  }

  Vector cross_terms(std::size_t j) const {
    Vector cross(passive_.size());
    for (std::size_t i = 0; i < passive_.size(); ++i) {
      cross[i] = gs_.gram(passive_[i], j);
    }
    return cross;
  }

  /// Rebuilds the factor of G[P, P] from scratch. Columns that no longer
  /// pass the dependence test are dropped from the passive set outright
  /// (x -> 0, blocked): the fallback for numerical drift after many edits.
  void refactorize() {
    ++result_.refactorizations;
    chol_.clear();
    std::vector<std::size_t> kept;
    for (std::size_t j : passive_) {
      Vector cross(kept.size());
      for (std::size_t i = 0; i < kept.size(); ++i) {
        cross[i] = gs_.gram(kept[i], j);
      }
      if (chol_.append(cross, gs_.gram(j, j), kRelTol)) {
        kept.push_back(j);
      } else {
        result_.x[j] = 0.0;
        in_passive_[j] = 0;
        blocked_[j] = 1;
      }
    }
    passive_ = std::move(kept);
  }

  bool insert(std::size_t j) {
    if (!chol_.append(cross_terms(j), gs_.gram(j, j), kRelTol)) {
      refactorize();
      if (!chol_.append(cross_terms(j), gs_.gram(j, j), kRelTol)) {
        return false;
      }
    }
    in_passive_[j] = 1;
    passive_.push_back(j);
    return true;
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
        if (z[i] <= tol_) {
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
        if (result_.x[j] > tol_) continue;
        result_.x[j] = 0.0;
        in_passive_[j] = 0;
        if (!moved) blocked_[j] = 1;
        chol_.remove(i);
        passive_.erase(passive_.begin() + static_cast<std::ptrdiff_t>(i));
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

  /// ||A x - b||^2 = b^T b - 2 x^T c + x^T G x, over the passive support.
  void finish_residual() {
    double quad = 0.0, lin = 0.0;
    for (std::size_t j : passive_) {
      lin += result_.x[j] * gs_.atb[j];
      double row = 0.0;
      for (std::size_t k : passive_) {
        row += gs_.gram(j, k) * result_.x[k];
      }
      quad += result_.x[j] * row;
    }
    result_.residual_norm =
        std::sqrt(std::max(0.0, gs_.btb - 2.0 * lin + quad));
  }

  static constexpr double kRelTol = kSeedRelTol;

  const GramSystem& gs_;
  const std::size_t n_;
  const std::size_t max_iterations_;
  const double tol_;
  const std::vector<std::size_t>& warm_;
  const NnlsWarmFactor* cached_;
  NnlsResult result_;
  std::vector<std::size_t> passive_;
  std::vector<std::uint8_t> in_passive_;
  std::vector<std::uint8_t> blocked_;
  UpdatableCholesky chol_;
};

std::size_t resolve_iteration_cap(std::size_t requested, std::size_t cols) {
  return requested == 0 ? 3 * cols + 10 : requested;
}

}  // namespace

NnlsWarmFactor seed_warm_factor(const GramSystem& gs,
                                const std::vector<std::size_t>& warm) {
  const std::size_t n = gs.gram.cols();
  NnlsWarmFactor out;
  out.chol = UpdatableCholesky(n);
  std::vector<std::uint8_t> in(n, 0);
  for (std::size_t j : warm) {
    if (j >= n || in[j]) continue;
    if (gs.gram(j, j) <= 0.0) continue;  // empty column
    Vector cross(out.passive.size());
    for (std::size_t i = 0; i < out.passive.size(); ++i) {
      cross[i] = gs.gram(out.passive[i], j);
    }
    if (!out.chol.append(cross, gs.gram(j, j), kSeedRelTol)) {
      continue;  // dependent on the columns seeded so far; skip
    }
    in[j] = 1;
    out.passive.push_back(j);
  }
  return out;
}

NnlsResult nnls_gram(const GramSystem& system, const NnlsOptions& options) {
  TOMO_REQUIRE(system.gram.rows() == system.gram.cols(),
               "nnls_gram: gram matrix must be square");
  TOMO_REQUIRE(system.atb.size() == system.gram.cols(),
               "nnls_gram: atb length mismatch");
  if (options.warm_factor != nullptr) {
    TOMO_REQUIRE(
        options.warm_factor->chol.size() ==
            options.warm_factor->passive.size(),
        "nnls_gram: malformed warm factor");
    for (std::size_t j : options.warm_factor->passive) {
      TOMO_REQUIRE(j < system.gram.cols(),
                   "nnls_gram: warm factor column out of range");
    }
  }
  const std::size_t cap =
      resolve_iteration_cap(options.max_iterations, system.gram.cols());
  return IncrementalNnls(system, cap, options.tol, options.warm_start,
                         options.warm_factor)
      .run();
}

}  // namespace tomo::linalg
