#include "corr/common_shock.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tomo::corr {

CommonShockModel::CommonShockModel(CorrelationSets sets,
                                   std::vector<double> base,
                                   std::vector<Shock> shocks)
    : sets_(std::move(sets)),
      base_(std::move(base)),
      shocks_(std::move(shocks)),
      exposed_(sets_.link_count(), 0) {
  TOMO_REQUIRE(base_.size() == sets_.link_count(),
               "one base probability per link required");
  TOMO_REQUIRE(shocks_.size() == sets_.set_count(),
               "one shock per correlation set required");
  for (double b : base_) {
    TOMO_REQUIRE(b >= 0.0 && b <= 1.0, "base probabilities must be in [0,1]");
  }
  for (std::size_t s = 0; s < shocks_.size(); ++s) {
    Shock& shock = shocks_[s];
    TOMO_REQUIRE(shock.rho >= 0.0 && shock.rho < 1.0,
                 "shock probability must be in [0,1)");
    TOMO_REQUIRE(shock.burst_length == 0.0 || shock.burst_length >= 1.0,
                 "mean burst length must be 0 (memoryless) or >= 1 snapshot");
    std::sort(shock.members.begin(), shock.members.end());
    for (LinkId link : shock.members) {
      TOMO_REQUIRE(sets_.set_of(link) == s,
                   "shock member outside its correlation set");
      exposed_[link] = 1;
    }
  }
}

void CommonShockModel::sample_block(Rng& rng, std::size_t count,
                                    std::uint8_t* out) const {
  const std::size_t links = sets_.link_count();
  // Bursty chains live on this call's stack: 0 = off, 1 = on, 2 = not yet
  // drawn (the first draw is stationary).
  std::vector<std::uint8_t> chains(shocks_.size(), 2);
  for (std::size_t n = 0; n < count; ++n) {
    std::uint8_t* state = out + n * links;
    for (std::size_t k = 0; k < links; ++k) {
      state[k] = rng.bernoulli(base_[k]) ? 1 : 0;
    }
    // A range-for with a walking chain pointer: an indexed shocks_[s] loop
    // re-reads the vector's bounds after every byte store (which may alias
    // them) and drew hier-2k's memoryless blocks ~20% slower.
    std::uint8_t* chain = chains.data();
    for (const Shock& shock : shocks_) {
      std::uint8_t& chain_state = *chain++;
      if (shock.rho <= 0.0) continue;
      bool fires;
      if (shock.burst_length == 0.0) {
        fires = rng.bernoulli(shock.rho);
      } else {
        if (shock.members.empty()) continue;
        // An episode ends with r = 1/burst_length and starts with
        // q = rho r / (1 - rho), so the stationary q / (q + r) is rho.
        const double r = 1.0 / shock.burst_length;
        double p = shock.rho;
        if (chain_state == 1) {
          p = 1.0 - r;
        } else if (chain_state == 0) {
          p = std::min(1.0, shock.rho * r / (1.0 - shock.rho));
        }
        chain_state = rng.bernoulli(p) ? 1 : 0;
        fires = chain_state == 1;
      }
      if (fires) {
        for (LinkId link : shock.members) {
          state[link] = 1;
        }
      }
    }
  }
}

double CommonShockModel::within_set_all_good(
    std::size_t set_index, const std::vector<LinkId>& links_in_set) const {
  const Shock& shock = shocks_[set_index];
  double prob = 1.0;
  bool touches_shock = false;
  for (LinkId link : links_in_set) {
    TOMO_REQUIRE(sets_.set_of(link) == set_index,
                 "within_set_all_good: link outside the queried set");
    prob *= 1.0 - base_[link];
    touches_shock = touches_shock || exposed_[link];
  }
  if (touches_shock && !links_in_set.empty()) {
    prob *= 1.0 - shock.rho;
  }
  return prob;
}

double CommonShockModel::base_for_marginal(double target, double rho,
                                           bool exposed) {
  TOMO_REQUIRE(target >= 0.0 && target <= 1.0,
               "target marginal must be in [0,1]");
  if (!exposed || rho <= 0.0) {
    return target;
  }
  TOMO_REQUIRE(target >= rho,
               "target marginal below the shock probability is unreachable");
  TOMO_REQUIRE(rho < 1.0, "shock probability must be < 1");
  // 1 - (1-base)(1-rho) = target  =>  base = 1 - (1-target)/(1-rho).
  return 1.0 - (1.0 - target) / (1.0 - rho);
}

}  // namespace tomo::corr
