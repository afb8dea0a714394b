// The serial full re-inference bootstrap: per replicate a per-bit snapshot
// resample on the replicate's core::replicate_rng stream, then a complete
// core::infer_congestion over the scalar measurement. With warm starts off,
// core::bootstrap_congestion's shared-Gram fast path and its re-harvest
// fallback must both equal it bit for bit at matched seeds.
#pragma once

#include <vector>

#include "core/bootstrap.hpp"

namespace tomo::reference {

/// Fills point, lower, upper, replicates and skipped (reharvested and
/// resample_seconds stay zero).
core::BootstrapResult bootstrap_congestion(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementBlock& block, const core::BootstrapOptions& options);

}  // namespace tomo::reference
