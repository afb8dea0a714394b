// The sequential, sweep-every-pair harvest: the differential reference for
// core::build_equations. Singles in path order; pair candidates in the
// historical first-encounter order of a global seen-set over the per-link
// path lists; the same deterministic shuffle; then one pair at a time,
// its correlation-freedom decided on the materialized union and every
// usable correlation-free pair offered to a linalg::RankTracker until
// full rank. Production's signature precheck and shared-link skip must
// reproduce its equations, their order, every y and every counter bit for
// bit.
#pragma once

#include <cstddef>
#include <vector>

#include "core/equations.hpp"

namespace tomo::reference {

/// Builds the system core::build_equations builds. When `offered` is
/// given, every row offered to the rank tracker is appended to it, in
/// order: the harvest's rank stream.
core::EquationSystem build_equations(
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementProvider& measurement,
    const core::EquationBuildOptions& options = {},
    std::vector<std::vector<std::size_t>>* offered = nullptr);

}  // namespace tomo::reference
