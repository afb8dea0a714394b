// Cross-set shock: the paper's "unknown correlation pattern" (§5, Fig. 5).
//
// A worm/botnet periodically floods a target set T of links that live in
// *different* correlation sets, making them correlated even though the
// operator's declared partition says they are not. The model wraps an
// inner model and OR-s in a global Bernoulli shock on T:
//
//   X_k = inner_k ∨ (k ∈ T ∧ W),  W ~ Bern(rho) independent of inner.
//
// sets() still reports the *declared* (now wrong) partition — algorithms
// consuming it are deliberately mis-informed, which is the experiment.
// prob_all_good() is overridden with the true joint probability, so oracle
// ground truth stays exact.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "corr/correlation.hpp"

namespace tomo::corr {

class CrossSetShockModel final : public CongestionModel {
 public:
  CrossSetShockModel(std::unique_ptr<CongestionModel> inner,
                     std::vector<LinkId> targets, double rho);

  const CorrelationSets& sets() const override { return inner_->sets(); }

  /// Delegates to the inner model's block sampler, then ORs the worm shock
  /// into each snapshot (inner block first, then one bernoulli per
  /// snapshot — a fixed order that keeps the block jobs-invariant).
  void sample_block(Rng& rng, std::size_t count,
                    std::uint8_t* out) const override;

  /// True joint: P(all L good) = inner(L) * (1 - rho·[L ∩ T ≠ ∅]).
  double prob_all_good(const std::vector<LinkId>& links) const override;

  /// Within-set marginal of the true joint (the cross-set shock restricted
  /// to one set is still a shock).
  double within_set_all_good(
      std::size_t set_index,
      const std::vector<LinkId>& links_in_set) const override;

 private:
  bool touches_target(const std::vector<LinkId>& links) const;

  std::unique_ptr<CongestionModel> inner_;
  std::vector<LinkId> targets_;
  std::vector<std::uint8_t> is_target_;
  double rho_;
};

}  // namespace tomo::corr
