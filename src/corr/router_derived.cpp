#include "corr/router_derived.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tomo::corr {

RouterDerivedModel::RouterDerivedModel(
    CorrelationSets sets, std::vector<std::vector<std::size_t>> underlying,
    std::vector<double> router_prob)
    : sets_(std::move(sets)),
      underlying_(std::move(underlying)),
      router_prob_(std::move(router_prob)) {
  TOMO_REQUIRE(underlying_.size() == sets_.link_count(),
               "one underlying-link list per logical link required");
  for (double p : router_prob_) {
    TOMO_REQUIRE(p >= 0.0 && p <= 1.0,
                 "router-link probabilities must be in [0,1]");
  }
  // Consistency: links sharing an underlying router link must share a
  // correlation set; a router link shared across sets would silently break
  // the cross-set independence the model claims.
  std::vector<std::size_t> owner(router_prob_.size(),
                                 static_cast<std::size_t>(-1));
  for (LinkId k = 0; k < underlying_.size(); ++k) {
    TOMO_REQUIRE(!underlying_[k].empty(),
                 "logical link with no underlying links");
    for (std::size_t r : underlying_[k]) {
      TOMO_REQUIRE(r < router_prob_.size(),
                   "underlying router link out of range");
      const std::size_t set = sets_.set_of(k);
      if (owner[r] == static_cast<std::size_t>(-1)) {
        owner[r] = set;
      } else {
        TOMO_REQUIRE(owner[r] == set,
                     "router link shared across correlation sets");
      }
    }
  }
}

void RouterDerivedModel::sample_block(Rng& rng, std::size_t count,
                                      std::uint8_t* out) const {
  // Per snapshot: every router-level link in id order, then each logical
  // link is the OR of its underlying links.
  const std::size_t links = underlying_.size();
  std::vector<std::uint8_t> router_state(router_prob_.size());
  for (std::size_t n = 0; n < count; ++n) {
    for (std::size_t r = 0; r < router_prob_.size(); ++r) {
      router_state[r] = rng.bernoulli(router_prob_[r]) ? 1 : 0;
    }
    std::uint8_t* state = out + n * links;
    for (LinkId k = 0; k < links; ++k) {
      state[k] = 0;
      for (std::size_t r : underlying_[k]) {
        state[k] |= router_state[r];
      }
    }
  }
}

double RouterDerivedModel::within_set_all_good(
    std::size_t set_index, const std::vector<LinkId>& links_in_set) const {
  // All queried logical links good <=> every distinct underlying router
  // link good.
  std::vector<std::size_t> routers;
  for (LinkId link : links_in_set) {
    TOMO_REQUIRE(sets_.set_of(link) == set_index,
                 "within_set_all_good: link outside the queried set");
    routers.insert(routers.end(), underlying_[link].begin(),
                   underlying_[link].end());
  }
  std::sort(routers.begin(), routers.end());
  routers.erase(std::unique(routers.begin(), routers.end()), routers.end());
  double prob = 1.0;
  for (std::size_t r : routers) {
    prob *= 1.0 - router_prob_[r];
  }
  return prob;
}

const std::vector<std::size_t>& RouterDerivedModel::underlying(
    LinkId link) const {
  TOMO_REQUIRE(link < underlying_.size(), "link id out of range");
  return underlying_[link];
}

}  // namespace tomo::corr
