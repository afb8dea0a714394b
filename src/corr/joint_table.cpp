#include "corr/joint_table.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace tomo::corr {

JointTableModel::JointTableModel(CorrelationSets sets,
                                 std::vector<SetDistribution> distributions)
    : sets_(std::move(sets)), dist_(std::move(distributions)) {
  TOMO_REQUIRE(dist_.size() == sets_.set_count(),
               "one distribution per correlation set required");
  cdf_.resize(dist_.size());
  for (std::size_t s = 0; s < dist_.size(); ++s) {
    const std::size_t size = sets_.set(s).size();
    TOMO_REQUIRE(size <= 20, "correlation set too large for a joint table");
    TOMO_REQUIRE(dist_[s].prob.size() == (std::size_t{1} << size),
                 "joint table size must be 2^|set|");
    double sum = 0.0;
    for (double p : dist_[s].prob) {
      TOMO_REQUIRE(p >= -1e-12, "joint table probabilities must be >= 0");
      sum += p;
    }
    TOMO_REQUIRE(std::abs(sum - 1.0) < 1e-6,
                 "joint table probabilities must sum to 1");
    cdf_[s].resize(dist_[s].prob.size());
    double acc = 0.0;
    for (std::size_t m = 0; m < dist_[s].prob.size(); ++m) {
      acc += std::max(0.0, dist_[s].prob[m]);
      cdf_[s][m] = acc;
    }
    cdf_[s].back() = 1.0;  // guard against rounding
  }
}

void JointTableModel::sample_block(Rng& rng, std::size_t count,
                                   std::uint8_t* out) const {
  const std::size_t links = sets_.link_count();
  for (std::size_t n = 0; n < count; ++n) {
    std::uint8_t* state = out + n * links;
    std::fill(state, state + links, 0);
    // One uniform per set, in set order: the set's state is the first
    // mask whose cumulative probability reaches it.
    for (std::size_t s = 0; s < dist_.size(); ++s) {
      const double u = rng.uniform();
      const auto& cdf = cdf_[s];
      const std::size_t mask = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const auto& members = sets_.set(s);
      for (std::size_t bit = 0; bit < members.size(); ++bit) {
        if (mask & (std::size_t{1} << bit)) {
          state[members[bit]] = 1;
        }
      }
    }
  }
}

std::uint32_t JointTableModel::mask_of(
    std::size_t set_index, const std::vector<LinkId>& links) const {
  const auto& members = sets_.set(set_index);
  std::uint32_t mask = 0;
  for (LinkId link : links) {
    auto it = std::lower_bound(members.begin(), members.end(), link);
    TOMO_REQUIRE(it != members.end() && *it == link,
                 "link is not a member of the queried correlation set");
    mask |= std::uint32_t{1}
            << static_cast<std::uint32_t>(it - members.begin());
  }
  return mask;
}

double JointTableModel::within_set_all_good(
    std::size_t set_index, const std::vector<LinkId>& links_in_set) const {
  const std::uint32_t query = mask_of(set_index, links_in_set);
  const auto& prob = dist_[set_index].prob;
  double sum = 0.0;
  for (std::size_t mask = 0; mask < prob.size(); ++mask) {
    if ((mask & query) == 0) {
      sum += prob[mask];
    }
  }
  return sum;
}

double JointTableModel::state_prob(std::size_t set_index,
                                   std::uint32_t mask) const {
  TOMO_REQUIRE(set_index < dist_.size(), "set index out of range");
  TOMO_REQUIRE(mask < dist_[set_index].prob.size(),
               "state mask out of range");
  return dist_[set_index].prob[mask];
}

JointTableModel JointTableModel::from_model(const CongestionModel& model) {
  const CorrelationSets& sets = model.sets();
  std::vector<SetDistribution> dists(sets.set_count());
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    const auto& members = sets.set(s);
    TOMO_REQUIRE(members.size() <= 20,
                 "correlation set too large to tabulate");
    const std::size_t total = std::size_t{1} << members.size();
    dists[s].prob.resize(total);
    double sum = 0.0;
    for (std::size_t mask = 0; mask < total; ++mask) {
      std::vector<LinkId> subset;
      for (std::size_t bit = 0; bit < members.size(); ++bit) {
        if (mask & (std::size_t{1} << bit)) {
          subset.push_back(members[bit]);
        }
      }
      dists[s].prob[mask] = model.set_state_prob(s, subset);
      sum += dists[s].prob[mask];
    }
    TOMO_REQUIRE(std::abs(sum - 1.0) < 1e-6,
                 "model state probabilities do not sum to 1 over a set");
  }
  return JointTableModel(sets, std::move(dists));
}

}  // namespace tomo::corr
