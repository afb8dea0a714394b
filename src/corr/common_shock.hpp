// Common-shock congestion model.
//
// Each correlation set C_p may carry a Bernoulli "shock" W_p (probability
// rho_p) hitting a designated subset M_p of its members — the shared
// resource failing, in the paper's physical-sharing story. Link k is
// congested iff (k ∈ M_p and W_p = 1) or its private Bernoulli V_k fires:
//
//   X_k = (k ∈ M_p ∧ W_p) ∨ V_k,   V_k ~ Bern(base[k]) independent.
//
// Closed form:  P(all of L ⊆ C_p good)
//             = Π_{k∈L}(1-base[k]) · (1 - rho_p·[L ∩ M_p ≠ ∅]).
//
// A shock is memoryless (W_p drawn afresh every snapshot) or bursty. Real
// congestion is bursty: a shared resource congested in one snapshot tends
// to stay congested for a while. A bursty shock's W_p follows a two-state
// (Gilbert) Markov chain with mean episode length `burst_length` snapshots,
// started from its stationary distribution P(W_p = 1) = rho_p at every
// sample_block call. Each snapshot's W_p is then Bernoulli(rho_p) and
// independent of the private V_k, so the closed form above holds for both
// kinds; only the dependence across snapshots differs. That is the paper's
// Assumption 3, which asks for stationarity, not independence across
// snapshots: estimators stay consistent and only converge more slowly,
// which bench/ablation_burstiness quantifies.
//
// The scenario builder uses this model to realize "more than 2 / up to 2
// congested links per correlation set" with controllable correlation
// strength while hitting exact per-link marginals.
#pragma once

#include <cstdint>
#include <vector>

#include "corr/correlation.hpp"

namespace tomo::corr {

/// Per-set shock specification.
struct Shock {
  double rho = 0.0;                // P(shock fires) in any one snapshot
  std::vector<LinkId> members;     // M_p, subset of the correlation set
  /// Mean shock episode length in snapshots. 0 = memoryless: a fresh
  /// Bernoulli(rho) every snapshot, drawn even when `members` is empty.
  /// >= 1 = bursty: an episode ends with probability 1/burst_length per
  /// snapshot (1 means every episode lasts exactly one snapshot; a
  /// memoryless shock has mean episode length 1/(1-rho)). A bursty shock
  /// with no members draws nothing.
  double burst_length = 0.0;
};

class CommonShockModel final : public CongestionModel {
 public:
  /// `base[k]` = P(V_k = 1); one Shock per correlation set (rho may be 0).
  CommonShockModel(CorrelationSets sets, std::vector<double> base,
                   std::vector<Shock> shocks);

  const CorrelationSets& sets() const override { return sets_; }
  void sample_block(Rng& rng, std::size_t count,
                    std::uint8_t* out) const override;
  double within_set_all_good(
      std::size_t set_index,
      const std::vector<LinkId>& links_in_set) const override;

  /// Chooses base[k] so that the marginal P(X_k=1) equals `target` given
  /// the link's shock exposure: base = 1 - (1-target)/(1-rho) for exposed
  /// links (requires target >= rho), base = target otherwise.
  static double base_for_marginal(double target, double rho, bool exposed);

 private:
  CorrelationSets sets_;
  std::vector<double> base_;
  std::vector<Shock> shocks_;
  std::vector<std::uint8_t> exposed_;  // link -> hit by its set's shock?
};

}  // namespace tomo::corr
