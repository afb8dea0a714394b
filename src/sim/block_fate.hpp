// Block and fate arithmetic of the batched simulator.
//
// The batched engine (sim/simulator.cpp) and its serial differential
// reference (tests/reference/simulator.cpp) must consume the exact same RNG
// stream to agree bit for bit, so they share these definitions instead of
// copies: the block size, the per-block seed tag, the good-delivery
// threshold, and the deterministic-fate classifier that decides when a
// path's verdict is certain enough to skip its binomial draw.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/path.hpp"
#include "sim/loss_model.hpp"

namespace tomo::sim {

/// Seed-tag base for per-block RNG streams: block b draws from
/// mix_seed(seed, kBlockSeedTag + b), so the stream depends only on
/// (seed, block index) — never on which worker ran the block.
inline constexpr std::uint64_t kBlockSeedTag = 0xb10c0000ULL;

/// Snapshots per batch: one 64-bit good word per path per block, so every
/// block writes disjoint words of the MeasurementBlock.
inline constexpr std::size_t kBlockSnapshots = 64;

/// Smallest delivered-packet count that still counts as "good":
/// congested iff measured_loss > tp iff delivered < n*(1-tp).
inline double good_threshold(std::size_t packets, double tp) {
  return std::ceil(static_cast<double>(packets) * (1.0 - tp));
}

/// Deterministic-fate shortcut: with delivered ~ Binomial(n, survival), the
/// verdict is certain (to ~8 sigma, P(flip) < 1e-15) when the mean sits
/// more than 8 standard deviations past the threshold. Returns +1
/// (certainly good), -1 (certainly congested), or 0 (borderline — draw).
inline int classify_fate(double packets, double survival, double threshold) {
  const double mean = packets * survival;
  const double variance = mean * (1.0 - survival);
  const double diff = mean - threshold;
  const double slack = (diff >= 0.0 ? diff : -diff) - 1.0;
  if (slack > 0.0 && slack * slack > 64.0 * variance) {
    return diff >= 0.0 ? 1 : -1;
  }
  return 0;
}

/// Per-path congestion thresholds tp (paper §5) of the loss model.
inline std::vector<double> path_thresholds(
    const LossModel& loss_model, const std::vector<graph::Path>& paths) {
  std::vector<double> tp(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    tp[p] = loss_model.path_threshold(paths[p].length());
  }
  return tp;
}

}  // namespace tomo::sim
