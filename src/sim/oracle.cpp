#include "sim/oracle.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace tomo::sim {

OracleMeasurement::OracleMeasurement(const corr::CongestionModel& model,
                                     const graph::CoverageIndex& coverage,
                                     std::size_t max_total_links)
    : model_(model), coverage_(coverage), max_total_links_(max_total_links) {
  TOMO_REQUIRE(model.link_count() == coverage.link_count(),
               "oracle: model and coverage disagree on link count");
}

double OracleMeasurement::good_prob(PathId p) const {
  const PathId one[1] = {p};
  return links_good_prob(one);
}

double OracleMeasurement::pair_good_prob(PathId a, PathId b) const {
  const PathId two[2] = {a, b};
  return links_good_prob(two);
}

double OracleMeasurement::links_good_prob(
    std::span<const PathId> paths) const {
  std::vector<graph::LinkId> links;
  for (PathId p : paths) {
    const auto& pl = coverage_.links_of(p);
    links.insert(links.end(), pl.begin(), pl.end());
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  return model_.prob_all_good(links);
}

double OracleMeasurement::exact_pattern_prob(const PathIdSet& pattern) const {
  // Enumerate network states as products of per-correlation-set states.
  // Correct for models that honour their declared partition; for models
  // with hidden cross-set dependence (CrossSetShockModel) this marginalizes
  // per set, which matches what the theorem algorithm assumes anyway.
  const corr::CorrelationSets& sets = model_.sets();
  TOMO_REQUIRE(sets.link_count() <= max_total_links_,
               "exact_pattern_prob: too many links for state enumeration");

  struct SetState {
    double prob;
    PathIdSet covered;
  };
  std::vector<std::vector<SetState>> admissible(sets.set_count());
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    const auto& members = sets.set(s);
    const std::size_t total = std::size_t{1} << members.size();
    for (std::size_t mask = 0; mask < total; ++mask) {
      std::vector<graph::LinkId> subset;
      for (std::size_t bit = 0; bit < members.size(); ++bit) {
        if (mask & (std::size_t{1} << bit)) {
          subset.push_back(members[bit]);
        }
      }
      const double prob = model_.set_state_prob(s, subset);
      if (prob <= 0.0) continue;
      PathIdSet covered = coverage_.covered_paths(subset);
      // Prune states that congest a path outside the target pattern.
      if (!std::includes(pattern.begin(), pattern.end(), covered.begin(),
                         covered.end())) {
        continue;
      }
      admissible[s].push_back(SetState{prob, std::move(covered)});
    }
  }

  // DFS over the per-set admissible states, accumulating probability of
  // exactly covering `pattern`.
  double total_prob = 0.0;
  PathIdSet current;
  auto dfs = [&](auto&& self, std::size_t s, double prob,
                 const PathIdSet& covered) -> void {
    if (s == admissible.size()) {
      if (covered == pattern) {
        total_prob += prob;
      }
      return;
    }
    for (const SetState& state : admissible[s]) {
      self(self, s + 1, prob * state.prob,
           graph::path_set_union(covered, state.covered));
    }
  };
  dfs(dfs, 0, 1.0, current);
  return total_prob;
}

}  // namespace tomo::sim
