#include "corr/cross_set_shock.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tomo::corr {

CrossSetShockModel::CrossSetShockModel(std::unique_ptr<CongestionModel> inner,
                                       std::vector<LinkId> targets,
                                       double rho)
    : inner_(std::move(inner)), targets_(std::move(targets)), rho_(rho) {
  TOMO_REQUIRE(inner_ != nullptr, "cross-set shock needs an inner model");
  TOMO_REQUIRE(rho_ >= 0.0 && rho_ < 1.0, "shock probability must be in [0,1)");
  is_target_.assign(inner_->link_count(), 0);
  std::sort(targets_.begin(), targets_.end());
  targets_.erase(std::unique(targets_.begin(), targets_.end()),
                 targets_.end());
  for (LinkId link : targets_) {
    TOMO_REQUIRE(link < is_target_.size(), "shock target out of range");
    is_target_[link] = 1;
  }
}

bool CrossSetShockModel::touches_target(
    const std::vector<LinkId>& links) const {
  return std::any_of(links.begin(), links.end(),
                     [&](LinkId k) { return is_target_[k] != 0; });
}

void CrossSetShockModel::sample_block(Rng& rng, std::size_t count,
                                      std::uint8_t* out) const {
  inner_->sample_block(rng, count, out);
  if (rho_ <= 0.0) return;
  const std::size_t links = inner_->link_count();
  for (std::size_t n = 0; n < count; ++n) {
    if (rng.bernoulli(rho_)) {
      std::uint8_t* state = out + n * links;
      for (LinkId link : targets_) {
        state[link] = 1;
      }
    }
  }
}

double CrossSetShockModel::prob_all_good(
    const std::vector<LinkId>& links) const {
  double prob = inner_->prob_all_good(links);
  if (touches_target(links)) {
    prob *= 1.0 - rho_;
  }
  return prob;
}

double CrossSetShockModel::within_set_all_good(
    std::size_t set_index, const std::vector<LinkId>& links_in_set) const {
  double prob = inner_->within_set_all_good(set_index, links_in_set);
  if (touches_target(links_in_set)) {
    prob *= 1.0 - rho_;
  }
  return prob;
}

}  // namespace tomo::corr
