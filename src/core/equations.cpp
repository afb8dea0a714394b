#include "core/equations.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "linalg/rank_tracker.hpp"
#include "sim/estimator.hpp"
#include "util/bitops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace tomo::core {

namespace {

/// Seed of the deterministic pair-candidate shuffle, which spreads accepted
/// pairs across the topology instead of clustering near low link ids.
constexpr std::uint64_t kPairShuffleSeed = 7;

/// sorted_union into a reused buffer (keeps its capacity across candidates;
/// a manual merge into pre-sized storage skips back_inserter's per-element
/// capacity checks on the hot path).
void sorted_union_into(const std::vector<graph::LinkId>& a,
                       const std::vector<graph::LinkId>& b,
                       std::vector<graph::LinkId>& out) {
  out.resize(a.size() + b.size());
  graph::LinkId* dst = out.data();
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      *dst++ = a[i++];
    } else if (b[j] < a[i]) {
      *dst++ = b[j++];
    } else {
      *dst++ = a[i++];
      ++j;
    }
  }
  while (i < a.size()) *dst++ = a[i++];
  while (j < b.size()) *dst++ = b[j++];
  out.resize(static_cast<std::size_t>(dst - out.data()));
}

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

/// Number of links shared by two sorted link lists.
std::size_t count_common(const std::vector<graph::LinkId>& a,
                         const std::vector<graph::LinkId>& b) {
  std::size_t i = 0, j = 0, common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return common;
}

/// Precomputed verdict for one pair candidate: everything the sequential
/// merge needs, produced by (possibly parallel) pure evaluation.
struct CandidateEval {
  bool corr_free = false;
  sim::LogProbEstimate est;          // valid only when corr_free
  std::vector<graph::LinkId> links;  // sorted union, only when corr_free
};

}  // namespace

PairPrecheck::PairPrecheck(const corr::CorrelationSets& sets,
                           const graph::CoverageIndex& coverage,
                           const std::vector<std::uint8_t>& eligible)
    : coverage_(coverage),
      words_((sets.set_count() + 63) / 64),
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

bool PairPrecheck::correlation_free(graph::PathId p, graph::PathId q) const {
  const std::size_t shared_sets = util::bitops::active().and_popcount(
      bits_.data() + p * words_, bits_.data() + q * words_, words_);
  return shared_sets == count_common(coverage_.sorted_links_of(p),
                                     coverage_.sorted_links_of(q));
}

EquationSystem build_equations(const graph::CoverageIndex& coverage,
                               const corr::CorrelationSets& sets,
                               const sim::MeasurementProvider& measurement,
                               const EquationBuildOptions& options) {
  TOMO_REQUIRE(coverage.link_count() == sets.link_count(),
               "coverage and correlation sets disagree on link count");
  TOMO_REQUIRE(coverage.path_count() == measurement.path_count(),
               "coverage and measurement disagree on path count");

  const Stopwatch build_timer;
  const std::size_t link_count = coverage.link_count();
  const std::size_t path_count = coverage.path_count();

  EquationSystem sys;
  sys.link_count = link_count;
  // Upper bounds: every path can yield a single, and pair acceptance is
  // capped by the pair budget — one per link unless redundant mode raises
  // it via max_pair_equations (non-redundant mode keeps at most |E| rows).
  sys.equations.reserve(
      path_count + std::max(link_count, options.include_redundant
                                            ? options.max_pair_equations
                                            : std::size_t{0}));
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
    const sim::LogProbEstimate est =
        sim::log_estimate(measurement.good_prob(p), measurement.sample_count(),
                          options.min_good_snapshots);
    if (!est.usable) {
      ++sys.dropped_unusable;
      continue;
    }
    eligible[p] = 1;  // usable & correlation-free: a pair-phase citizen
    const bool independent = tracker.try_add_ones(plinks(p));
    if (!independent && !options.include_redundant) {
      ++sys.dropped_dependent;
      continue;
    }
    sys.equations.push_back(Equation{plinks(p), {p}, est.log_prob});
    ++sys.n1;
  }

  // Phase 2: pair equations (paper Eq. 10). Only pairs sharing at least
  // one link can increase rank, so candidates are generated from the
  // per-link path lists; the lowest shared link of a pair "owns" it, which
  // deduplicates candidates without a global seen-set while preserving the
  // historical first-encounter order.
  const std::size_t pair_budget =
      options.include_redundant
          ? (options.max_pair_equations != 0 ? options.max_pair_equations
                                             : link_count)
          : link_count;
  const bool want_pairs =
      options.use_pairs &&
      (options.include_redundant || !tracker.full_rank());
  if (want_pairs) {
    std::vector<std::pair<graph::PathId, graph::PathId>> candidates;
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

    // Pure per-candidate evaluation; safe to run on any worker. Slots are
    // reused across batches (links keeps its capacity), so rejected
    // candidates allocate nothing after warm-up.
    const auto evaluate = [&](std::size_t idx, CandidateEval& ev) {
      const auto& [p, q] = candidates[idx];
      ev.corr_free = all_singletons || precheck->correlation_free(p, q);
      if (ev.corr_free) {
        sorted_union_into(plinks(p), plinks(q), ev.links);
        ev.est = sim::log_estimate(measurement.pair_good_prob(p, q),
                                   measurement.sample_count(),
                                   options.min_good_snapshots);
      }
    };

    // Candidates are evaluated in fixed batches (parallel when jobs > 1)
    // and merged strictly in candidate order, replaying the sequential
    // loop's budget/rank/cap control flow — so counters, accepted
    // equations, and their order are byte-identical for any jobs value.
    // Work past the merge's break point is at most one batch of waste.
    constexpr std::size_t kBatch = 128;
    const std::size_t jobs =
        candidates.size() > kBatch ? util::resolve_jobs(options.jobs) : 1;
    std::unique_ptr<util::ThreadPool> pool;
    if (jobs > 1) pool = std::make_unique<util::ThreadPool>(jobs);

    std::vector<CandidateEval> evals(std::min(kBatch, candidates.size()));
    bool stop = false;
    for (std::size_t start = 0; start < candidates.size() && !stop;
         start += kBatch) {
      const std::size_t end = std::min(start + kBatch, candidates.size());
      const std::size_t batch = end - start;
      if (pool) {
        const std::size_t chunk = (batch + jobs - 1) / jobs;
        std::vector<std::future<void>> done;
        for (std::size_t cs = 0; cs < batch; cs += chunk) {
          const std::size_t ce = std::min(cs + chunk, batch);
          done.push_back(pool->submit([&, cs, ce] {
            for (std::size_t k = cs; k < ce; ++k) {
              evaluate(start + k, evals[k]);
            }
          }));
        }
        for (auto& f : done) f.get();
      } else {
        for (std::size_t k = 0; k < batch; ++k) {
          evaluate(start + k, evals[k]);
        }
      }

      for (std::size_t k = 0; k < batch; ++k) {
        const bool budget_reached =
            options.include_redundant && sys.n2 >= pair_budget;
        if (tracker.full_rank() && (!options.include_redundant ||
                                    budget_reached)) {
          stop = true;
          break;
        }
        if (options.max_pair_candidates != 0 &&
            sys.pair_candidates_tried >= options.max_pair_candidates) {
          stop = true;
          break;
        }
        ++sys.pair_candidates_tried;
        CandidateEval& ev = evals[k];
        if (!ev.corr_free) {
          ++sys.dropped_correlated;
          continue;
        }
        if (!ev.est.usable) {
          ++sys.dropped_unusable;
          continue;
        }
        // Once full rank is reached, redundant-mode acceptance no longer
        // needs the (expensive) elimination sweep.
        const bool independent =
            tracker.full_rank() ? false : tracker.try_add_ones(ev.links);
        if (!independent && (!options.include_redundant || budget_reached)) {
          // Past the budget, only rank-increasing pairs are still worth
          // taking (the hunt for missing columns continues).
          ++sys.dropped_dependent;
          continue;
        }
        const auto& [p, q] = candidates[start + k];
        sys.equations.push_back(
            Equation{std::move(ev.links), {p, q}, ev.est.log_prob});
        ++sys.n2;
      }
    }
  }

  sys.rank = tracker.rank();
  TOMO_ASSERT(options.include_redundant || sys.rank == sys.n1 + sys.n2);

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
                                     std::size_t weight_samples) {
  linalg::SparseSystemView view;
  view.cols = system.link_count;
  view.rows.reserve(system.equations.size());
  const double n = static_cast<double>(weight_samples);
  for (const Equation& eq : system.equations) {
    linalg::SparseRow row;
    row.support = eq.links.data();
    row.support_size = eq.links.size();
    if (weight_samples > 0) {
      // Every support entry carries the weight; the rhs scales with it.
      row.value = variance_weight(eq.y, n);
      row.y = row.value * eq.y;
    } else {
      row.y = eq.y;
    }
    view.rows.push_back(row);
  }
  return view;
}

linalg::SparseSystemView sparse_view_with_rhs(const EquationSystem& system,
                                              const std::vector<double>& ys,
                                              std::size_t weight_samples) {
  TOMO_REQUIRE(ys.size() == system.equations.size(),
               "sparse_view_with_rhs: rhs count does not match the system");
  linalg::SparseSystemView view;
  view.cols = system.link_count;
  view.rows.reserve(system.equations.size());
  const double n = static_cast<double>(weight_samples);
  for (std::size_t i = 0; i < system.equations.size(); ++i) {
    const Equation& eq = system.equations[i];
    linalg::SparseRow row;
    row.support = eq.links.data();
    row.support_size = eq.links.size();
    if (weight_samples > 0) {
      row.value = variance_weight(ys[i], n);
      row.y = row.value * ys[i];
    } else {
      row.y = ys[i];
    }
    view.rows.push_back(row);
  }
  return view;
}

}  // namespace tomo::core
