#include "reference/equations.hpp"

#include <algorithm>
#include <iterator>
#include <set>

#include "linalg/rank_tracker.hpp"
#include "util/rng.hpp"

namespace tomo::reference {

namespace {

/// core::build_equations' pair-shuffle seed.
constexpr std::uint64_t kPairShuffleSeed = 7;

}  // namespace

core::EquationSystem build_equations(
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementProvider& measurement,
    const core::EquationBuildOptions& options,
    std::vector<std::vector<std::size_t>>* offered) {
  const std::size_t link_count = coverage.link_count();
  const std::size_t path_count = coverage.path_count();
  core::EquationSystem sys;
  sys.link_count = link_count;
  const std::size_t pair_budget = options.max_pair_equations != 0
                                      ? options.max_pair_equations
                                      : link_count;
  linalg::RankTracker tracker(link_count);
  const auto offer = [&](const std::vector<std::size_t>& row) {
    if (offered != nullptr) offered->push_back(row);
    return tracker.try_add_ones(row);
  };

  // Singles (Eq. 9): every usable correlation-free path, in path order.
  std::vector<std::uint8_t> eligible(path_count, 0);
  for (graph::PathId p = 0; p < path_count; ++p) {
    const std::vector<graph::LinkId>& links = coverage.sorted_links_of(p);
    if (!sets.correlation_free(links)) {
      ++sys.dropped_correlated;
      continue;
    }
    const sim::LogProbEstimate est =
        core::candidate_estimate(measurement, {p, p});
    if (!est.usable) {
      ++sys.dropped_unusable;
      continue;
    }
    eligible[p] = 1;
    offer(links);
    sys.equations.push_back(links, {p, p}, est.log_prob);
    ++sys.n1;
  }
  if (!options.use_pairs) {
    sys.rank = tracker.rank();
    return sys;
  }

  // Pairs (Eq. 10): eligible pairs that share a link, each where a scan of
  // the per-link path lists in link order first meets it.
  std::vector<core::CandidatePaths> candidates;
  std::set<core::CandidatePaths> seen;
  for (graph::LinkId e = 0; e < link_count; ++e) {
    const graph::PathIdSet& through = coverage.paths_through(e);
    for (std::size_t i = 0; i < through.size(); ++i) {
      for (std::size_t j = i + 1; j < through.size(); ++j) {
        const core::CandidatePaths pair{through[i], through[j]};
        if (eligible[pair.first] && eligible[pair.second] &&
            seen.insert(pair).second) {
          candidates.push_back(pair);
        }
      }
    }
  }
  Rng rng(kPairShuffleSeed);
  rng.shuffle(candidates);

  std::vector<graph::LinkId> links;
  for (const core::CandidatePaths& pair : candidates) {
    const bool budget_reached = sys.n2 >= pair_budget;
    if (tracker.full_rank() && budget_reached) break;
    ++sys.pair_candidates_tried;
    const std::vector<graph::LinkId>& a = coverage.sorted_links_of(pair.first);
    const std::vector<graph::LinkId>& b =
        coverage.sorted_links_of(pair.second);
    links.clear();
    std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                   std::back_inserter(links));
    if (!sets.correlation_free(links)) {
      ++sys.dropped_correlated;
      continue;
    }
    const sim::LogProbEstimate est =
        core::candidate_estimate(measurement, pair);
    if (!est.usable) {
      ++sys.dropped_unusable;
      continue;
    }
    // Until the budget is spent every usable pair is kept; after it, only
    // a pair the sweep finds independent.
    const bool independent = !tracker.full_rank() && offer(links);
    if (!independent && budget_reached) {
      ++sys.dropped_dependent;
      continue;
    }
    sys.equations.push_back(links, pair, est.log_prob);
    ++sys.n2;
  }
  sys.rank = tracker.rank();
  return sys;
}

}  // namespace tomo::reference
