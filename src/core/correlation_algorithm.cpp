#include "core/correlation_algorithm.hpp"

#include <algorithm>
#include <cmath>

#include "corr/identifiability.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace tomo::core {

corr::CorrelationSets demote_to_singletons(
    const corr::CorrelationSets& sets,
    const std::vector<graph::LinkId>& links) {
  std::vector<std::uint8_t> demote(sets.link_count(), 0);
  for (graph::LinkId e : links) {
    TOMO_REQUIRE(e < sets.link_count(), "demoted link out of range");
    demote[e] = 1;
  }
  graph::LinkPartition partition;
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    std::vector<graph::LinkId> keep;
    for (graph::LinkId e : sets.set(s)) {
      if (!demote[e]) keep.push_back(e);
    }
    if (!keep.empty()) partition.push_back(std::move(keep));
  }
  for (graph::LinkId e = 0; e < sets.link_count(); ++e) {
    if (demote[e]) partition.push_back({e});
  }
  return corr::CorrelationSets(sets.link_count(), std::move(partition));
}

RefinedHarvest harvest_refined_system(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementProvider& measurement,
    const InferenceOptions& options) {
  RefinedHarvest harvest;

  corr::CorrelationSets refined = sets;
  if (options.refine_unidentifiable) {
    harvest.refined_links =
        corr::structurally_unidentifiable_links(g, paths, sets);
    if (!harvest.refined_links.empty()) {
      refined = demote_to_singletons(sets, harvest.refined_links);
    }
  }

  // Fallback (paper §3.3): links untouched by any usable equation (every
  // path through them also crosses a same-set link) are unidentifiable
  // under the declared structure — act as if they were uncorrelated and
  // rebuild, so the previously correlated paths become usable. Their own
  // estimates inherit the independence algorithm's bias, but every other
  // link keeps its clean equations. A pair equation's links are the union
  // of two usable single paths' links, so the single-path equations alone
  // decide which links are covered, and the pairs are harvested once, on
  // the final structure. One round is all the fallback ever runs: a
  // demotion only splits sets, so every path that covered a link before it
  // stays correlation-free and usable, and every link it leaves uncovered
  // is then alone in its set. Only a set of two or more links can be
  // relaxed.
  if (refined.set_count() < refined.link_count()) {
    EquationBuildOptions singles_only = options.equations;
    singles_only.use_pairs = false;
    std::vector<CandidatePaths> tried;
    const EquationSystem singles = build_equations(
        coverage, refined, measurement, singles_only, &tried);
    std::vector<std::uint8_t> covered(coverage.link_count(), 0);
    for (const Equation eq : singles.equations) {
      for (graph::LinkId e : eq.links) covered[e] = 1;
    }
    std::vector<graph::LinkId> uncovered;
    bool progress = false;
    for (graph::LinkId e = 0; e < coverage.link_count(); ++e) {
      if (covered[e]) continue;
      uncovered.push_back(e);
      if (refined.set(refined.set_of(e)).size() > 1) progress = true;
    }
    if (progress) {
      // The round's singles are about to be replaced: record them and the
      // singles it found unusable so replay_harvest can certify that the
      // demotion decision replays. (Without a demotion, the final build
      // below tries the same singles again and records them itself.)
      for (const Equation eq : singles.equations) {
        harvest.witness_paths.emplace_back(eq.paths.front(), eq.paths.front());
      }
      harvest.unusable = std::move(tried);
      refined = demote_to_singletons(refined, uncovered);
      harvest.refined_links.insert(harvest.refined_links.end(),
                                   uncovered.begin(), uncovered.end());
    }
  }
  harvest.system = build_equations(coverage, refined, measurement,
                                   options.equations, &harvest.unusable);
  return harvest;
}

bool replay_harvest(const RefinedHarvest& kept,
                    const sim::MeasurementProvider& measurement,
                    std::vector<double>& ys) {
  const auto usable = [&](CandidatePaths candidate) {
    return candidate_estimate(measurement, candidate).usable;
  };
  for (const CandidatePaths& candidate : kept.unusable) {
    if (usable(candidate)) return false;
  }
  for (const CandidatePaths& candidate : kept.witness_paths) {
    if (!usable(candidate)) return false;
  }
  const EquationList& equations = kept.system.equations;
  ys.resize(equations.size());
  for (std::size_t i = 0; i < equations.size(); ++i) {
    const std::span<const graph::PathId> paths = equations[i].paths;
    const sim::LogProbEstimate est =
        candidate_estimate(measurement, {paths.front(), paths.back()});
    if (!est.usable) return false;
    ys[i] = est.log_prob;
  }
  return true;
}

void apply_solution(InferenceResult& result,
                    linalg::LogSystemSolution solution) {
  result.log_good = std::move(solution.x);
  result.solver_detail = std::move(solution.detail);
  result.active_set = std::move(solution.active_set);
  result.congestion_prob.resize(result.log_good.size());
  for (std::size_t k = 0; k < result.log_good.size(); ++k) {
    result.congestion_prob[k] = 1.0 - std::exp(result.log_good[k]);
    // Clamp residual numerical noise.
    result.congestion_prob[k] =
        std::clamp(result.congestion_prob[k], 0.0, 1.0);
  }
}

InferenceResult infer_congestion(const graph::Graph& g,
                                 const std::vector<graph::Path>& paths,
                                 const graph::CoverageIndex& coverage,
                                 const corr::CorrelationSets& sets,
                                 const sim::MeasurementProvider& measurement,
                                 const InferenceOptions& options) {
  InferenceResult result;

  RefinedHarvest harvest = harvest_refined_system(g, paths, coverage, sets,
                                                  measurement, options);
  result.system = std::move(harvest.system);
  result.refined_links = std::move(harvest.refined_links);
  TOMO_REQUIRE(!result.system.equations.empty(),
               "no usable equations: the measurements never observed a "
               "usable good path");

  // Solve on the harvest's sparse view: the variance weights (when
  // requested) are applied row-by-row inside the view, and the incremental
  // NNLS path builds its Gram products straight from the per-equation
  // support — the dense incidence matrix never materializes here.
  const std::size_t weight_samples =
      options.weight_by_variance ? measurement.sample_count() : 0;
  const Stopwatch solve_timer;
  linalg::LogSystemSolution solution = linalg::solve_log_system(
      sparse_view(result.system, weight_samples), options.solver);
  result.solve_seconds = solve_timer.seconds();
  apply_solution(result, std::move(solution));
  return result;
}

}  // namespace tomo::core
