#include "reference/harvest_chain.hpp"

#include <cstdint>

#include "corr/identifiability.hpp"

namespace tomo::reference {

namespace {

/// Upper bound on the §3.3 demotion rounds (production's bound).
constexpr std::size_t kMaxDemotionRounds = 3;

}  // namespace

core::RefinedHarvest harvest_refined_system(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementProvider& measurement,
    const core::InferenceOptions& options) {
  core::RefinedHarvest harvest;

  corr::CorrelationSets refined = sets;
  if (options.refine_unidentifiable) {
    harvest.refined_links =
        corr::structurally_unidentifiable_links(g, paths, sets);
    if (!harvest.refined_links.empty()) {
      refined = core::demote_to_singletons(sets, harvest.refined_links);
    }
  }

  harvest.system = core::build_equations(coverage, refined, measurement,
                                         options.equations, &harvest.unusable);

  // Fallback rounds: links untouched by any usable equation (every path
  // through them also crosses a same-set link) are unidentifiable under
  // the declared structure — act as if they were uncorrelated (paper §3.3)
  // and rebuild, so the previously correlated paths become usable. Their
  // own estimates inherit the independence algorithm's bias, but every
  // other link keeps its clean equations.
  for (std::size_t round = 0; round < kMaxDemotionRounds; ++round) {
    std::vector<std::uint8_t> covered(coverage.link_count(), 0);
    for (const core::Equation eq : harvest.system.equations) {
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
    // path sets so replay_harvest can certify the demotion decision
    // replays.
    for (const core::Equation eq : harvest.system.equations) {
      harvest.witness_paths.emplace_back(eq.paths.front(), eq.paths.back());
    }
    refined = core::demote_to_singletons(refined, uncovered);
    harvest.refined_links.insert(harvest.refined_links.end(),
                                 uncovered.begin(), uncovered.end());
    harvest.system = core::build_equations(
        coverage, refined, measurement, options.equations, &harvest.unusable);
  }
  return harvest;
}

}  // namespace tomo::reference
