#include "corr/correlation.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tomo::corr {

CorrelationSets::CorrelationSets(std::size_t link_count,
                                 LinkPartition partition)
    : partition_(std::move(partition)), set_of_(link_count, link_count) {
  for (std::size_t s = 0; s < partition_.size(); ++s) {
    TOMO_REQUIRE(!partition_[s].empty(), "empty correlation set");
    for (LinkId link : partition_[s]) {
      TOMO_REQUIRE(link < link_count, "correlation set has unknown link");
      TOMO_REQUIRE(set_of_[link] == link_count,
                   "link assigned to two correlation sets");
      set_of_[link] = s;
    }
    std::sort(partition_[s].begin(), partition_[s].end());
  }
  for (LinkId link = 0; link < link_count; ++link) {
    TOMO_REQUIRE(set_of_[link] != link_count,
                 "link " + std::to_string(link) + " is in no correlation set");
  }
}

CorrelationSets CorrelationSets::singletons(std::size_t link_count) {
  LinkPartition partition(link_count);
  for (LinkId link = 0; link < link_count; ++link) {
    partition[link] = {link};
  }
  return CorrelationSets(link_count, std::move(partition));
}

const std::vector<LinkId>& CorrelationSets::set(std::size_t index) const {
  TOMO_REQUIRE(index < partition_.size(), "correlation set index out of range");
  return partition_[index];
}

std::size_t CorrelationSets::set_of(LinkId link) const {
  TOMO_REQUIRE(link < set_of_.size(), "link id out of range");
  return set_of_[link];
}

bool CorrelationSets::correlation_free(
    const std::vector<LinkId>& links) const {
  // Typical inputs are short (a path or a pair of paths), so a small
  // scratch array beats a hash set; stay on the stack for the common case
  // (the equation harvest calls this once per path per build).
  constexpr std::size_t kStack = 64;
  std::size_t stack_seen[kStack];
  std::vector<std::size_t> heap_seen;
  std::size_t* seen = stack_seen;
  if (links.size() > kStack) {
    heap_seen.resize(links.size());
    seen = heap_seen.data();
  }
  std::size_t count = 0;
  for (LinkId link : links) {
    const std::size_t s = set_of(link);
    if (std::find(seen, seen + count, s) != seen + count) {
      return false;
    }
    seen[count++] = s;
  }
  return true;
}

std::vector<CorrelationSubset> enumerate_correlation_subsets(
    const CorrelationSets& sets, std::size_t max_set_size) {
  std::vector<CorrelationSubset> subsets;
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    const auto& members = sets.set(s);
    TOMO_REQUIRE(members.size() <= max_set_size,
                 "correlation set of size " + std::to_string(members.size()) +
                     " exceeds the enumeration limit");
    const std::size_t total = std::size_t{1} << members.size();
    for (std::size_t mask = 1; mask < total; ++mask) {
      CorrelationSubset subset;
      subset.set_index = s;
      for (std::size_t bit = 0; bit < members.size(); ++bit) {
        if (mask & (std::size_t{1} << bit)) {
          subset.links.push_back(members[bit]);
        }
      }
      subsets.push_back(std::move(subset));
    }
  }
  return subsets;
}

double CongestionModel::prob_all_good(
    const std::vector<LinkId>& links) const {
  // Group the queried links by correlation set, then use independence
  // across sets.
  const CorrelationSets& cs = sets();
  std::vector<std::vector<LinkId>> by_set;
  std::vector<std::size_t> set_ids;
  for (LinkId link : links) {
    const std::size_t s = cs.set_of(link);
    auto it = std::find(set_ids.begin(), set_ids.end(), s);
    std::size_t pos;
    if (it == set_ids.end()) {
      set_ids.push_back(s);
      by_set.emplace_back();
      pos = set_ids.size() - 1;
    } else {
      pos = static_cast<std::size_t>(it - set_ids.begin());
    }
    by_set[pos].push_back(link);
  }
  double prob = 1.0;
  for (std::size_t i = 0; i < set_ids.size(); ++i) {
    prob *= within_set_all_good(set_ids[i], by_set[i]);
  }
  return prob;
}

double CongestionModel::marginal(LinkId link) const {
  return 1.0 - prob_all_good({link});
}

std::vector<double> CongestionModel::marginals() const {
  std::vector<double> out(link_count());
  for (LinkId link = 0; link < out.size(); ++link) {
    out[link] = marginal(link);
  }
  return out;
}

double CongestionModel::set_state_prob(
    std::size_t set_index, const std::vector<LinkId>& subset) const {
  // P(exactly `subset` congested within C_p)
  //   = sum_{B subseteq subset} (-1)^|B| P(all of (C_p \ subset) ∪ B good).
  const auto& members = sets().set(set_index);
  std::vector<LinkId> complement;
  for (LinkId link : members) {
    if (std::find(subset.begin(), subset.end(), link) == subset.end()) {
      complement.push_back(link);
    }
  }
  TOMO_REQUIRE(complement.size() + subset.size() == members.size(),
               "set_state_prob: subset has links outside the set");
  TOMO_REQUIRE(subset.size() <= 25, "set_state_prob: subset too large");
  const std::size_t total = std::size_t{1} << subset.size();
  double prob = 0.0;
  for (std::size_t mask = 0; mask < total; ++mask) {
    std::vector<LinkId> query = complement;
    int sign = 1;
    for (std::size_t bit = 0; bit < subset.size(); ++bit) {
      if (mask & (std::size_t{1} << bit)) {
        query.push_back(subset[bit]);
        sign = -sign;
      }
    }
    prob += sign * prob_all_good(query);
  }
  // Inclusion-exclusion can produce tiny negative values numerically.
  return std::max(0.0, prob);
}

IndependentModel::IndependentModel(CorrelationSets sets,
                                   std::vector<double> congestion_prob)
    : sets_(std::move(sets)), p_(std::move(congestion_prob)) {
  TOMO_REQUIRE(p_.size() == sets_.link_count(),
               "one congestion probability per link required");
  for (double v : p_) {
    TOMO_REQUIRE(v >= 0.0 && v <= 1.0,
                 "congestion probabilities must lie in [0,1]");
  }
}

void IndependentModel::sample_block(Rng& rng, std::size_t count,
                                    std::uint8_t* out) const {
  const std::size_t links = p_.size();
  for (std::size_t n = 0; n < count; ++n) {
    std::uint8_t* state = out + n * links;
    for (std::size_t k = 0; k < links; ++k) {
      state[k] = rng.bernoulli(p_[k]) ? 1 : 0;
    }
  }
}

double IndependentModel::within_set_all_good(
    std::size_t set_index, const std::vector<LinkId>& links_in_set) const {
  double prob = 1.0;
  for (LinkId link : links_in_set) {
    TOMO_REQUIRE(sets_.set_of(link) == set_index,
                 "within_set_all_good: link outside the queried set");
    prob *= 1.0 - p_[link];
  }
  return prob;
}

}  // namespace tomo::corr
