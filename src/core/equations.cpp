#include "core/equations.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "linalg/rank_tracker.hpp"
#include "sim/estimator.hpp"
#include "util/bitops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace tomo::core {

namespace {

/// Seed of the deterministic pair-candidate shuffle, which spreads accepted
/// pairs across the topology instead of clustering near low link ids.
constexpr std::uint64_t kPairShuffleSeed = 7;

/// The sorted union of two sorted link lists into a reused buffer, which
/// keeps its capacity across candidates; writing into pre-sized storage
/// skips back_inserter's per-element capacity checks on the hot path.
void sorted_union_into(const std::vector<graph::LinkId>& a,
                       const std::vector<graph::LinkId>& b,
                       std::vector<graph::LinkId>& out) {
  out.resize(a.size() + b.size());
  out.erase(std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                           out.begin()),
            out.end());
}

/// The links two sorted link lists share, sorted, into a reused buffer
/// (pre-sized likewise).
void sorted_shared_into(const std::vector<graph::LinkId>& a,
                        const std::vector<graph::LinkId>& b,
                        std::vector<graph::LinkId>& shared) {
  shared.resize(std::min(a.size(), b.size()));
  shared.erase(std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                                     shared.begin()),
               shared.end());
}

/// Hash of a sorted link set (keys stay exact: the set compares links).
struct LinkSetHash {
  std::size_t operator()(const std::vector<graph::LinkId>& links) const {
    std::uint64_t h = links.size();
    for (graph::LinkId e : links) {
      h = (h ^ e) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
    }
    return h;
  }
};

/// True iff `link` is the lowest link shared by the two sorted link lists —
/// the "lowest-touch-link" ownership rule that deduplicates pair candidates
/// without a global seen-set: a pair is emitted only from the per-link scan
/// of its lowest shared link, which is also where the historical seen-set
/// first encountered it, so the candidate order is unchanged. `link` must
/// be present in both lists.
bool owns_pair(graph::LinkId link, const std::vector<graph::LinkId>& a,
               const std::vector<graph::LinkId>& b) {
  std::size_t i = 0, j = 0;
  while (a[i] < link && b[j] < link) {
    if (a[i] == b[j]) return false;  // an earlier shared link owns the pair
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

}  // namespace

PairPrecheck::PairPrecheck(const corr::CorrelationSets& sets,
                           const graph::CoverageIndex& coverage,
                           const std::vector<std::uint8_t>& eligible)
    : words_((sets.set_count() + 63) / 64),
      bits_(coverage.path_count() * words_, 0) {
  for (graph::PathId p = 0; p < coverage.path_count(); ++p) {
    if (!eligible[p]) continue;
    std::uint64_t* row = bits_.data() + p * words_;
    for (graph::LinkId e : coverage.sorted_links_of(p)) {
      const std::size_t s = sets.set_of(e);
      row[s / 64] |= std::uint64_t{1} << (s % 64);
    }
  }
}

bool PairPrecheck::correlation_free(graph::PathId p, graph::PathId q,
                                    std::size_t shared_links) const {
  return util::bitops::active().and_popcount(bits_.data() + p * words_,
                                             bits_.data() + q * words_,
                                             words_) == shared_links;
}

sim::LogProbEstimate candidate_estimate(
    const sim::MeasurementProvider& measurement, CandidatePaths candidate) {
  const auto [p, q] = candidate;
  return sim::log_estimate(p == q ? measurement.good_prob(p)
                                  : measurement.pair_good_prob(p, q));
}

EquationSystem build_equations(const graph::CoverageIndex& coverage,
                               const corr::CorrelationSets& sets,
                               const sim::MeasurementProvider& measurement,
                               const EquationBuildOptions& options,
                               std::vector<CandidatePaths>* unusable) {
  TOMO_REQUIRE(coverage.link_count() == sets.link_count(),
               "coverage and correlation sets disagree on link count");
  TOMO_REQUIRE(coverage.path_count() == measurement.path_count(),
               "coverage and measurement disagree on path count");

  const Stopwatch build_timer;
  const std::size_t link_count = coverage.link_count();
  const std::size_t path_count = coverage.path_count();

  EquationSystem sys;
  sys.link_count = link_count;
  // Room for a single per path and for the larger of the pair budget and
  // |E| pairs (a capacity hint: past the budget, only pairs that raise
  // the rank are accepted).
  const std::size_t pair_budget = options.max_pair_equations != 0
                                      ? options.max_pair_equations
                                      : link_count;
  sys.equations.reserve(path_count + std::max(link_count, pair_budget));
  linalg::RankTracker tracker(link_count);

  // Per-path sorted link lists live on the coverage index, computed once
  // per experiment rather than once per build.
  const auto plinks = [&coverage](graph::PathId p) -> const auto& {
    return coverage.sorted_links_of(p);
  };

  // Singleton structures cannot reject any candidate (every set holds one
  // link and paths never repeat a link), so the correlation checks
  // short-circuit to "correlation-free" — the independence run skips the
  // per-path set scans entirely.
  const bool all_singletons = sets.set_count() == sets.link_count();

  // Phase 1: single-path equations (paper Eq. 9).
  std::vector<std::uint8_t> eligible(path_count, 0);
  for (graph::PathId p = 0; p < path_count; ++p) {
    if (!all_singletons && !sets.correlation_free(plinks(p))) {
      ++sys.dropped_correlated;
      continue;
    }
    const sim::LogProbEstimate est = candidate_estimate(measurement, {p, p});
    if (!est.usable) {
      ++sys.dropped_unusable;
      if (unusable != nullptr) unusable->emplace_back(p, p);
      continue;
    }
    eligible[p] = 1;  // usable & correlation-free: a pair-phase citizen
    tracker.try_add_ones(plinks(p));
    sys.equations.push_back(plinks(p), {p, p}, est.log_prob);
    ++sys.n1;
  }

  // Phase 2: pair equations (paper Eq. 10). Only pairs sharing at least
  // one link can increase rank, so candidates are generated from the
  // per-link path lists; the lowest shared link of a pair "owns" it, which
  // deduplicates candidates without a global seen-set while preserving the
  // historical first-encounter order.
  if (options.use_pairs) {
    std::vector<CandidatePaths> candidates;
    for (graph::LinkId e = 0; e < link_count; ++e) {
      const auto& through = coverage.paths_through(e);
      for (std::size_t i = 0; i < through.size(); ++i) {
        if (!eligible[through[i]]) continue;
        for (std::size_t j = i + 1; j < through.size(); ++j) {
          if (!eligible[through[j]]) continue;
          if (owns_pair(e, plinks(through[i]), plinks(through[j]))) {
            candidates.emplace_back(through[i], through[j]);
          }
        }
      }
    }
    Rng rng(kPairShuffleSeed);
    rng.shuffle(candidates);

    // Singleton structures short-circuit, so the precheck is only built
    // when it can actually reject a candidate.
    std::optional<PairPrecheck> precheck;
    if (!all_singletons) precheck.emplace(sets, coverage, eligible);

    // One walk of the two link lists writes a candidate's shared links,
    // which decide both correlation-freedom and the rank sweep; the union
    // is built only for a pair the loop sweeps or keeps. Both buffers keep
    // their capacity, so candidates allocate nothing after warm-up.
    std::vector<graph::LinkId> shared;  // the candidate's sorted shared links
    std::vector<graph::LinkId> links;   // a swept or kept pair's sorted union
    // The shared-link sets already swept. A lookup is keyed by the
    // candidate's own buffer and allocates nothing; only a new set is
    // copied in.
    std::unordered_set<std::vector<graph::LinkId>, LinkSetHash> swept;
    for (const CandidatePaths& candidate : candidates) {
      const bool budget_reached = sys.n2 >= pair_budget;
      if (tracker.full_rank() && budget_reached) break;
      ++sys.pair_candidates_tried;
      const auto [p, q] = candidate;
      sorted_shared_into(plinks(p), plinks(q), shared);
      if (!all_singletons &&
          !precheck->correlation_free(p, q, shared.size())) {
        ++sys.dropped_correlated;
        continue;
      }
      const sim::LogProbEstimate est =
          candidate_estimate(measurement, candidate);
      if (!est.usable) {
        ++sys.dropped_unusable;
        if (unusable != nullptr) unusable->push_back(candidate);
        continue;
      }
      // Every eligible path's row was offered in phase 1, so the union
      // row (both path rows minus the shared links' indicator) is in the
      // span iff that indicator is. The span only grows: once a pair with
      // these shared links has been swept, whatever its verdict, every
      // later one is dependent, and its sweep would return false and leave
      // the tracker untouched. Once full rank is reached, no pair needs
      // the (expensive) elimination sweep. The union is read only by a
      // sweep or a kept equation: past the budget, an unswept pair is
      // dropped without it.
      const bool sweep = !tracker.full_rank() && swept.insert(shared).second;
      if (sweep || !budget_reached) {
        sorted_union_into(plinks(p), plinks(q), links);
      }
      const bool independent = sweep && tracker.try_add_ones(links);
      if (!independent && budget_reached) {
        // Past the budget, only rank-increasing pairs are still worth
        // taking (the hunt for missing columns continues).
        ++sys.dropped_dependent;
        continue;
      }
      sys.equations.push_back(links, candidate, est.log_prob);
      ++sys.n2;
    }
  }

  sys.rank = tracker.rank();

  sys.build_seconds = build_timer.seconds();
  return sys;
}

}  // namespace tomo::core

namespace tomo::core {

namespace {

/// Inverse standard deviation of a log-probability estimate over
/// `samples` snapshots (delta method). p is in (0, 1]: unusable
/// zero-probability equations never enter the system. The p == 1 case
/// (zero variance) is guarded with one pseudo-count.
double variance_weight(double log_prob, double samples) {
  const double p = std::exp(log_prob);
  const double variance =
      std::max((1.0 - p) / (p * samples), 1.0 / (samples * samples));
  return 1.0 / std::sqrt(variance);
}

}  // namespace

linalg::SparseSystemView sparse_view(const EquationSystem& system,
                                     std::size_t weight_samples,
                                     std::span<const double> ys) {
  TOMO_REQUIRE(ys.empty() || ys.size() == system.equations.size(),
               "sparse_view: rhs count does not match the system");
  linalg::SparseSystemView view;
  view.cols = system.link_count;
  view.rows.reserve(system.equations.size());
  const double n = static_cast<double>(weight_samples);
  for (std::size_t i = 0; i < system.equations.size(); ++i) {
    const Equation eq = system.equations[i];
    const double y = ys.empty() ? eq.y : ys[i];
    linalg::SparseRow row;
    row.support = eq.links.data();
    row.support_size = eq.links.size();
    if (weight_samples > 0) {
      // Every support entry carries the weight; the rhs scales with it.
      row.value = variance_weight(y, n);
      row.y = row.value * y;
    } else {
      row.y = y;
    }
    view.rows.push_back(row);
  }
  return view;
}

}  // namespace tomo::core
