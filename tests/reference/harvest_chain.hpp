// The §3.3 harvest chain as first written: the differential reference for
// core::harvest_refined_system. Every demotion round runs a full
// core::build_equations, pair phase included, and a round that fires
// replaces that system. Its witness_paths hold every equation of each
// discarded round, singles and pairs, and its unusable list every
// candidate each round tried. Production decides each round from the
// round's single-path equations alone and harvests pairs once, on the
// final structure: its system and refined_links must equal this chain's
// bit for bit, its witness_paths must equal these with every pair removed,
// and its unusable list these with the discarded rounds' pairs removed.
#pragma once

#include <vector>

#include "core/correlation_algorithm.hpp"

namespace tomo::reference {

/// Runs the chain core::harvest_refined_system runs, from the same
/// arguments.
core::RefinedHarvest harvest_refined_system(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementProvider& measurement,
    const core::InferenceOptions& options);

}  // namespace tomo::reference
