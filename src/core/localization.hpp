// Per-snapshot congested-link localization.
//
// The paper (§3.3, "Can our result help determine whether a link was
// congested or not?") observes that identifying congestion *probabilities*
// is the first step toward solving the classic ill-posed inverse problem:
// given the set of congested paths in one snapshot, which links were
// congested? Its future work proposes explicitly computing the most likely
// feasible solution using those probabilities — which is what this module
// implements, in three variants:
//
//  * localize_smallest_set  — the [13]-style heuristic: explain the
//    congested paths with as few congested links as possible (greedy set
//    cover), no probabilities needed. The classical baseline.
//  * localize_greedy_map    — greedy weighted cover using per-link
//    congestion probabilities (from either algorithm): each candidate link
//    is scored by log(p/(1-p)) per newly covered path; correlation-aware
//    when fed the correlation algorithm's probabilities.
//  * localize_exact_map     — exact MAP over per-correlation-set states
//    (probabilities from the theorem algorithm), enumerating feasible
//    network states; exponential, for small systems and as the reference.
//
// Feasibility constraints (Assumption 2): every link on a good path is
// good; every congested path contains at least one congested link.
#pragma once

#include <vector>

#include "core/theorem_algorithm.hpp"
#include "corr/correlation.hpp"
#include "graph/coverage.hpp"

namespace tomo::core {

/// The observation for one snapshot: which paths were congested.
using CongestedPaths = graph::PathIdSet;  // sorted path ids

struct LocalizationResult {
  std::vector<graph::LinkId> congested_links;  // sorted
  bool feasible = true;  // false if no link set can explain the observation
};

/// Links that cannot be congested (they lie on a good path), plus the
/// candidate links per congested path. Shared plumbing, exposed for tests.
struct LocalizationDomain {
  std::vector<std::uint8_t> forced_good;          // per link
  std::vector<std::vector<graph::LinkId>> candidates;  // per congested path
};
LocalizationDomain build_domain(const graph::CoverageIndex& coverage,
                                const CongestedPaths& congested);

/// Greedy smallest-explanation heuristic (no probabilities).
LocalizationResult localize_smallest_set(
    const graph::CoverageIndex& coverage, const CongestedPaths& congested);

/// Greedy MAP with per-link congestion probabilities; probabilities are
/// clamped away from {0,1} so links with estimate 0 can still be blamed
/// when nothing else explains a path.
LocalizationResult localize_greedy_map(
    const graph::CoverageIndex& coverage, const CongestedPaths& congested,
    const std::vector<double>& congestion_prob);

/// Exact MAP over per-set states from a theorem-algorithm result.
/// Exponential in correlation-set sizes; guarded by max_links.
LocalizationResult localize_exact_map(const graph::CoverageIndex& coverage,
                                      const corr::CorrelationSets& sets,
                                      const TheoremResult& probabilities,
                                      const CongestedPaths& congested,
                                      std::size_t max_links = 24);

/// Detection quality of a localization against the true link state.
struct LocalizationScore {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  double detection_rate() const;       // TP / (TP + FN); 1 if no positives
  double false_discovery_rate() const; // FP / (FP + TP); 0 if none reported
};
LocalizationScore score_localization(
    const std::vector<std::uint8_t>& true_state,
    const std::vector<graph::LinkId>& reported);

}  // namespace tomo::core
