#include "corr/model_factory.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tomo::corr {

std::unique_ptr<IndependentModel> make_independent(
    std::vector<double> congestion_prob) {
  CorrelationSets sets = CorrelationSets::singletons(congestion_prob.size());
  return std::make_unique<IndependentModel>(std::move(sets),
                                            std::move(congestion_prob));
}

std::unique_ptr<CommonShockModel> make_clustered_shock_model(
    const CorrelationSets& sets, const std::vector<LinkId>& congested_links,
    const std::vector<double>& target_marginal, double correlation_strength,
    double burst_length) {
  TOMO_REQUIRE(congested_links.size() == target_marginal.size(),
               "one target marginal per congested link required");
  TOMO_REQUIRE(correlation_strength >= 0.0 && correlation_strength < 1.0,
               "correlation strength must be in [0,1)");

  std::vector<double> marginal_of(sets.link_count(), 0.0);
  std::vector<std::vector<LinkId>> members(sets.set_count());
  for (std::size_t i = 0; i < congested_links.size(); ++i) {
    const LinkId link = congested_links[i];
    TOMO_REQUIRE(link < sets.link_count(), "congested link out of range");
    TOMO_REQUIRE(marginal_of[link] == 0.0,
                 "congested link listed twice");
    TOMO_REQUIRE(target_marginal[i] > 0.0 && target_marginal[i] < 1.0,
                 "target marginals must be in (0,1)");
    marginal_of[link] = target_marginal[i];
    members[sets.set_of(link)].push_back(link);
  }

  std::vector<double> base(sets.link_count(), 0.0);
  std::vector<Shock> shocks(sets.set_count());
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    Shock& shock = shocks[s];
    shock.burst_length = burst_length;
    if (members[s].size() >= 2 && correlation_strength > 0.0) {
      double min_marginal = 1.0;
      for (LinkId link : members[s]) {
        min_marginal = std::min(min_marginal, marginal_of[link]);
      }
      shock.rho = correlation_strength * min_marginal;
    }
    for (LinkId link : members[s]) {
      base[link] = CommonShockModel::base_for_marginal(
          marginal_of[link], shock.rho, /*exposed=*/shock.rho > 0.0);
    }
    if (shock.rho > 0.0) {
      shock.members = std::move(members[s]);
    }
  }
  return std::make_unique<CommonShockModel>(sets, std::move(base),
                                            std::move(shocks));
}

std::unique_ptr<CrossSetShockModel> make_worm_model(
    std::unique_ptr<CongestionModel> inner, std::vector<LinkId> targets,
    double rho) {
  return std::make_unique<CrossSetShockModel>(std::move(inner),
                                              std::move(targets), rho);
}

}  // namespace tomo::corr
