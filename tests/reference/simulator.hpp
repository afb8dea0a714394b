// Reference simulator engines.
//
//   simulate_batched_reference — sim::simulate's block semantics (same
//     per-block seed streams, same fate classifier from sim/block_fate.hpp)
//     executed as deliberately plain serial code: per-path link-vector
//     walks and per-bit PathObservations writes instead of CSR flattening,
//     direct good-word packing and the parallel merge. sim::simulate must
//     match it bit for bit.
//   simulate_per_packet — one RNG stream across all snapshots and a literal
//     per-packet Bernoulli walk along each path's links; agrees with
//     sim::simulate in distribution only (the statistical reference).
//   simulate_exact — no packet noise: a path is congested iff one of its
//     links is. The noise-free fixture for tests that separate estimation
//     error from packet-sampling error.
#pragma once

#include <vector>

#include "corr/correlation.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "sim/simulator.hpp"

namespace tomo::reference {

sim::SimulationResult simulate_batched_reference(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config);

sim::SimulationResult simulate_per_packet(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config);

/// Reads only config.snapshots and config.seed.
sim::SimulationResult simulate_exact(const graph::Graph& g,
                                     const std::vector<graph::Path>& paths,
                                     const corr::CongestionModel& model,
                                     const sim::SimulatorConfig& config);

}  // namespace tomo::reference
