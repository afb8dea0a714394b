#include "core/localization.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace tomo::core {

LocalizationDomain build_domain(const graph::CoverageIndex& coverage,
                                const CongestedPaths& congested) {
  LocalizationDomain domain;
  domain.forced_good.assign(coverage.link_count(), 0);
  std::vector<std::uint8_t> is_congested_path(coverage.path_count(), 0);
  for (graph::PathId p : congested) {
    TOMO_REQUIRE(p < coverage.path_count(),
                 "congested path id out of range");
    is_congested_path[p] = 1;
  }
  // Assumption 2: a good path certifies all its links good.
  for (graph::PathId p = 0; p < coverage.path_count(); ++p) {
    if (is_congested_path[p]) continue;
    for (graph::LinkId e : coverage.links_of(p)) {
      domain.forced_good[e] = 1;
    }
  }
  domain.candidates.reserve(congested.size());
  for (graph::PathId p : congested) {
    std::vector<graph::LinkId> cand;
    for (graph::LinkId e : coverage.links_of(p)) {
      if (!domain.forced_good[e]) {
        cand.push_back(e);
      }
    }
    domain.candidates.push_back(std::move(cand));
  }
  return domain;
}

namespace {

/// Greedy cover over the congested paths. `gain(link)` must be positive
/// for links worth blaming; ties are broken toward more covered paths.
template <typename GainFn>
LocalizationResult greedy_cover(const graph::CoverageIndex& coverage,
                                const CongestedPaths& congested,
                                GainFn gain) {
  const LocalizationDomain domain = build_domain(coverage, congested);
  LocalizationResult result;

  std::vector<std::uint8_t> uncovered(congested.size(), 1);
  std::size_t remaining = congested.size();
  // Candidate links (union over paths), deduplicated.
  std::vector<graph::LinkId> pool;
  for (const auto& cand : domain.candidates) {
    pool.insert(pool.end(), cand.begin(), cand.end());
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  // Map congested path -> dense index.
  std::vector<std::size_t> dense_of(coverage.path_count(),
                                    static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < congested.size(); ++i) {
    dense_of[congested[i]] = i;
  }
  auto covered_count = [&](graph::LinkId e) {
    std::size_t count = 0;
    for (graph::PathId p : coverage.paths_through(e)) {
      const std::size_t i = dense_of[p];
      if (i != static_cast<std::size_t>(-1) && uncovered[i]) {
        ++count;
      }
    }
    return count;
  };

  while (remaining > 0) {
    graph::LinkId best = coverage.link_count();
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_covers = 0;
    for (graph::LinkId e : pool) {
      const std::size_t covers = covered_count(e);
      if (covers == 0) continue;
      const double score = gain(e, covers);
      if (score > best_score ||
          (score == best_score && covers > best_covers)) {
        best_score = score;
        best = e;
        best_covers = covers;
      }
    }
    if (best == coverage.link_count()) {
      // Some congested path has no blameable link: infeasible observation
      // (can happen with packet noise flagging a path whose links are all
      // certified good by other paths).
      result.feasible = false;
      break;
    }
    result.congested_links.push_back(best);
    for (graph::PathId p : coverage.paths_through(best)) {
      const std::size_t i = dense_of[p];
      if (i != static_cast<std::size_t>(-1) && uncovered[i]) {
        uncovered[i] = 0;
        --remaining;
      }
    }
  }
  std::sort(result.congested_links.begin(), result.congested_links.end());
  return result;
}

}  // namespace

LocalizationResult localize_smallest_set(
    const graph::CoverageIndex& coverage, const CongestedPaths& congested) {
  // Classic greedy set cover: maximize newly covered paths per link.
  return greedy_cover(coverage, congested,
                      [](graph::LinkId, std::size_t covers) {
                        return static_cast<double>(covers);
                      });
}

LocalizationResult localize_greedy_map(
    const graph::CoverageIndex& coverage, const CongestedPaths& congested,
    const std::vector<double>& congestion_prob) {
  TOMO_REQUIRE(congestion_prob.size() == coverage.link_count(),
               "one congestion probability per link required");
  // Greedy maximization of the independence-form MAP objective
  //   sum over flagged links of log(p/(1-p))  s.t. the flags cover all
  // congested paths. Links with p > 1/2 have positive log-odds, so the MAP
  // includes every such candidate unconditionally; the remaining uncovered
  // paths are then explained by weighted greedy set cover with link cost
  // -log(p/(1-p)) > 0 (minimize cost per newly covered path). This is the
  // paper's "most likely feasible solution" in greedy form — and where the
  // correlation algorithm's probabilities pay off: links that congest as a
  // correlated group carry honest (high) probabilities instead of the
  // baseline's biased ones.
  const LocalizationDomain domain = build_domain(coverage, congested);
  LocalizationResult result;

  std::vector<std::uint8_t> uncovered(congested.size(), 1);
  std::size_t remaining = congested.size();
  std::vector<std::size_t> dense_of(coverage.path_count(),
                                    static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < congested.size(); ++i) {
    dense_of[congested[i]] = i;
  }
  auto mark_covered = [&](graph::LinkId e) {
    for (graph::PathId p : coverage.paths_through(e)) {
      const std::size_t i = dense_of[p];
      if (i != static_cast<std::size_t>(-1) && uncovered[i]) {
        uncovered[i] = 0;
        --remaining;
      }
    }
  };
  auto covered_count = [&](graph::LinkId e) {
    std::size_t count = 0;
    for (graph::PathId p : coverage.paths_through(e)) {
      const std::size_t i = dense_of[p];
      if (i != static_cast<std::size_t>(-1) && uncovered[i]) ++count;
    }
    return count;
  };
  auto log_odds = [&](graph::LinkId e) {
    const double p = std::clamp(congestion_prob[e], 1e-4, 1.0 - 1e-4);
    return std::log(p / (1.0 - p));
  };

  std::vector<graph::LinkId> pool;
  for (const auto& cand : domain.candidates) {
    pool.insert(pool.end(), cand.begin(), cand.end());
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  // Phase 1: positive-log-odds candidates always improve the objective.
  for (graph::LinkId e : pool) {
    if (log_odds(e) > 0.0) {
      result.congested_links.push_back(e);
      mark_covered(e);
    }
  }

  // Phase 2: weighted greedy set cover over the rest.
  while (remaining > 0) {
    graph::LinkId best = coverage.link_count();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (graph::LinkId e : pool) {
      const std::size_t covers = covered_count(e);
      if (covers == 0) continue;
      const double cost = -log_odds(e);  // > 0 here
      const double ratio = cost / static_cast<double>(covers);
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = e;
      }
    }
    if (best == coverage.link_count()) {
      result.feasible = false;
      break;
    }
    result.congested_links.push_back(best);
    mark_covered(best);
  }
  std::sort(result.congested_links.begin(), result.congested_links.end());
  return result;
}

LocalizationResult localize_exact_map(const graph::CoverageIndex& coverage,
                                      const corr::CorrelationSets& sets,
                                      const TheoremResult& probabilities,
                                      const CongestedPaths& congested,
                                      std::size_t max_links) {
  TOMO_REQUIRE(sets.link_count() == coverage.link_count(),
               "correlation sets and coverage disagree on link count");
  TOMO_REQUIRE(sets.link_count() <= max_links,
               "localize_exact_map: too many links for state enumeration");
  const LocalizationDomain domain = build_domain(coverage, congested);

  // Admissible per-set states: no forced-good link congested, no good path
  // covered. Track per state which congested paths it covers.
  struct SetState {
    double log_prob;
    graph::PathIdSet covered;  // subset of `congested`
    std::vector<graph::LinkId> links;
  };
  std::vector<std::vector<SetState>> admissible(sets.set_count());
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    const auto& members = sets.set(s);
    const std::size_t total = std::size_t{1} << members.size();
    for (std::size_t mask = 0; mask < total; ++mask) {
      std::vector<graph::LinkId> links;
      bool ok = true;
      for (std::size_t bit = 0; bit < members.size() && ok; ++bit) {
        if (mask & (std::size_t{1} << bit)) {
          if (domain.forced_good[members[bit]]) {
            ok = false;
          } else {
            links.push_back(members[bit]);
          }
        }
      }
      if (!ok) continue;
      const double prob = probabilities.state_prob[s][mask];
      if (prob <= 0.0) continue;
      graph::PathIdSet covered = coverage.covered_paths(links);
      // Covered paths must all be congested (good paths would contradict
      // the observation) — guaranteed by the forced_good filter, since a
      // link of a good path is forced good. So `covered` ⊆ congested.
      admissible[s].push_back(
          SetState{std::log(prob), std::move(covered), std::move(links)});
    }
  }

  // DFS over per-set states maximizing total log probability subject to
  // covering every congested path.
  LocalizationResult result;
  double best = -std::numeric_limits<double>::infinity();
  std::vector<std::size_t> choice(sets.set_count(), 0);
  std::vector<std::size_t> best_choice;
  auto dfs = [&](auto&& self, std::size_t s, double log_prob,
                 const graph::PathIdSet& covered) -> void {
    if (log_prob <= best) {
      // Even with probability-1 states ahead, log_prob can only decrease.
      return;
    }
    if (s == sets.set_count()) {
      if (covered.size() == congested.size()) {  // covered ⊆ congested
        best = log_prob;
        best_choice = choice;
      }
      return;
    }
    for (std::size_t i = 0; i < admissible[s].size(); ++i) {
      choice[s] = i;
      self(self, s + 1, log_prob + admissible[s][i].log_prob,
           graph::path_set_union(covered, admissible[s][i].covered));
    }
  };
  dfs(dfs, 0, 0.0, {});

  if (best_choice.empty()) {
    if (!congested.empty()) {
      result.feasible = false;
    }
    return result;
  }
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    const auto& links = admissible[s][best_choice[s]].links;
    result.congested_links.insert(result.congested_links.end(),
                                  links.begin(), links.end());
  }
  std::sort(result.congested_links.begin(), result.congested_links.end());
  return result;
}

double LocalizationScore::detection_rate() const {
  const std::size_t positives = true_positives + false_negatives;
  if (positives == 0) return 1.0;
  return static_cast<double>(true_positives) /
         static_cast<double>(positives);
}

double LocalizationScore::false_discovery_rate() const {
  const std::size_t reported = true_positives + false_positives;
  if (reported == 0) return 0.0;
  return static_cast<double>(false_positives) /
         static_cast<double>(reported);
}

LocalizationScore score_localization(
    const std::vector<std::uint8_t>& true_state,
    const std::vector<graph::LinkId>& reported) {
  LocalizationScore score;
  std::vector<std::uint8_t> flagged(true_state.size(), 0);
  for (graph::LinkId e : reported) {
    TOMO_REQUIRE(e < true_state.size(), "reported link out of range");
    flagged[e] = 1;
  }
  for (graph::LinkId e = 0; e < true_state.size(); ++e) {
    if (true_state[e] && flagged[e]) ++score.true_positives;
    if (!true_state[e] && flagged[e]) ++score.false_positives;
    if (true_state[e] && !flagged[e]) ++score.false_negatives;
  }
  return score;
}

}  // namespace tomo::core
