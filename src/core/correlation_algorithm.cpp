#include "core/correlation_algorithm.hpp"

#include <algorithm>
#include <cmath>

#include "corr/identifiability.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace tomo::core {

namespace {

/// Upper bound on the §3.3 demotion rounds of harvest_refined_system.
constexpr std::size_t kMaxDemotionRounds = 3;

}  // namespace

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

  harvest.system =
      build_equations(coverage, refined, measurement, options.equations);

  // Fallback rounds: links untouched by any usable equation are
  // unidentifiable under the declared structure — act as if they were
  // uncorrelated (paper §3.3) and rebuild.
  for (std::size_t round = 0;
       options.demote_uncovered && round < kMaxDemotionRounds;
       ++round) {
    std::vector<std::uint8_t> covered(coverage.link_count(), 0);
    for (const Equation& eq : harvest.system.equations) {
      for (graph::LinkId e : eq.links) covered[e] = 1;
    }
    std::vector<graph::LinkId> uncovered;
    for (graph::LinkId e = 0; e < coverage.link_count(); ++e) {
      if (!covered[e]) uncovered.push_back(e);
    }
    if (uncovered.empty()) break;
    bool progress = false;
    for (graph::LinkId e : uncovered) {
      if (refined.set(refined.set_of(e)).size() > 1) progress = true;
    }
    if (!progress) break;  // already singletons; nothing left to relax
    // This round's harvest is about to be replaced: record its equation
    // path sets so bootstrap replicates can certify the demotion decision
    // replays (see RefinedHarvest::witness_paths).
    for (const Equation& eq : harvest.system.equations) {
      harvest.witness_paths.push_back(eq.paths);
    }
    refined = demote_to_singletons(refined, uncovered);
    harvest.refined_links.insert(harvest.refined_links.end(),
                                 uncovered.begin(), uncovered.end());
    harvest.system =
        build_equations(coverage, refined, measurement, options.equations);
  }
  return harvest;
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
