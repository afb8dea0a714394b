// The snapshot simulator (paper §5, "Simulator").
//
// Each round: (1) draw the congested-link set from the ground-truth
// CongestionModel, (2) assign each link a loss rate from the LossModel,
// (3) send packets along every path and measure its loss rate, (4) flag the
// path congested when the measured rate exceeds tp.
//
// Snapshots are generated in independent 64-snapshot blocks (one good-bit
// word per path per block): each block derives its own RNG stream from
// mix_seed(seed, kBlockSeedTag + block) and writes disjoint words of the
// MeasurementBlock, so blocks run in parallel across `jobs` workers with
// output bit-identical for any job count. Per-path delivery is binomial,
// with an 8-sigma deterministic-fate shortcut that skips the draw when the
// verdict is certain (sim/block_fate.hpp). Bursty models restart their
// chains per block (see CongestionModel::sample_block).
#pragma once

#include <cstdint>
#include <vector>

#include "corr/correlation.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "sim/loss_model.hpp"
#include "sim/measurement_block.hpp"
#include "util/rng.hpp"

namespace tomo::sim {

struct SimulatorConfig {
  std::size_t snapshots = 1000;
  std::size_t packets_per_path = 1000;
  double tl = 0.01;
  std::uint64_t seed = 1;
  /// Worker threads for the block fan-out (0 = all hardware cores). Output
  /// is bit-identical for any value. Defaults to 1 so nested parallelism
  /// (trial-level fan-out) stays oversubscription-free unless a caller
  /// explicitly hands the sim its own workers.
  std::size_t jobs = 1;
};

struct SimulationResult {
  /// Path-major good-snapshot bitmasks, produced directly by the simulator;
  /// EmpiricalMeasurement adopts it without re-packing.
  MeasurementBlock measurement;
  // Empirical per-link congestion counts (ground truth bookkeeping, used
  // for diagnostics and tests; the algorithms never see it). Accumulated by
  // a serial per-block merge in block order, so it is jobs-invariant.
  std::vector<std::size_t> link_congested_count;
  std::size_t snapshots = 0;
};

/// Runs the experiment and returns per-path congestion observations.
SimulationResult simulate(const graph::Graph& g,
                          const std::vector<graph::Path>& paths,
                          const corr::CongestionModel& model,
                          const SimulatorConfig& config);

}  // namespace tomo::sim
