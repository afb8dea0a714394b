// Convenience constructors for the congestion models used by the
// evaluation scenarios.
#pragma once

#include <memory>
#include <vector>

#include "corr/common_shock.hpp"
#include "corr/correlation.hpp"
#include "corr/cross_set_shock.hpp"

namespace tomo::corr {

/// Independent links with the given marginals, declared as singletons.
std::unique_ptr<IndependentModel> make_independent(
    std::vector<double> congestion_prob);

/// Builds a CommonShockModel in which exactly the links of
/// `congested_links` have the marginals in `target_marginal` (all other
/// links are permanently good), and the congested links of each correlation
/// set are positively correlated via a per-set shock.
///
/// `correlation_strength` in [0,1) scales the shock: rho_p =
/// strength * min marginal of the set's congested links (0 when the set has
/// fewer than two congested links, since there is nothing to correlate).
/// `burst_length` is every shock's Shock::burst_length: 0 draws memoryless
/// shocks, a value >= 1 bursty ones with that mean episode length (same
/// per-snapshot law, so Assumption 3's stationarity still holds while
/// snapshots become temporally dependent).
std::unique_ptr<CommonShockModel> make_clustered_shock_model(
    const CorrelationSets& sets, const std::vector<LinkId>& congested_links,
    const std::vector<double>& target_marginal, double correlation_strength,
    double burst_length = 0.0);

/// Wraps `inner` with the worm shock of the Fig. 5 scenario.
std::unique_ptr<CrossSetShockModel> make_worm_model(
    std::unique_ptr<CongestionModel> inner, std::vector<LinkId> targets,
    double rho);

}  // namespace tomo::corr
