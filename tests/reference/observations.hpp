// The congested-bit observation matrix and its scalar measurement
// provider: the differential references for the production observation
// representation (sim::MeasurementBlock, path-major good bits) and its
// bitmask kernels (sim::EmpiricalMeasurement).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/coverage.hpp"
#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"
#include "util/rng.hpp"

namespace tomo::reference {

using graph::PathId;
using graph::PathIdSet;

/// One row of congested bits per path (bit n set = the path was congested
/// in snapshot n; bits beyond snapshot_count stay zero). Set and query one
/// bit at a time.
class PathObservations {
 public:
  PathObservations(std::size_t path_count, std::size_t snapshot_count);

  std::size_t path_count() const { return path_count_; }
  std::size_t snapshot_count() const { return snapshot_count_; }

  /// Marks path `p` congested in snapshot `n` (bits start out good).
  void set_congested(PathId p, std::size_t n);
  bool congested(PathId p, std::size_t n) const;

  /// Snapshots in which every path in `paths` was good (all of them for
  /// the empty set).
  std::size_t all_good_count(std::span<const PathId> paths) const;
  std::size_t good_count(PathId p) const;
  std::size_t both_good_count(PathId a, PathId b) const;

  /// Snapshots whose congested-path set is exactly `pattern` (sorted).
  std::size_t exact_pattern_count(const PathIdSet& pattern) const;

 private:
  std::size_t words_per_path() const { return (snapshot_count_ + 63) / 64; }
  const std::uint64_t* row(PathId p) const;

  std::size_t path_count_;
  std::size_t snapshot_count_;
  std::vector<std::uint64_t> bits_;  // 1 = congested
};

/// Bit-by-bit conversions; each is the exact complement of the other.
sim::MeasurementBlock to_block(const PathObservations& obs);
PathObservations to_observations(const sim::MeasurementBlock& block);

/// Resamples snapshots with replacement: one rng.below(n) per output
/// snapshot (the stream core::draw_picks draws), then the picked bits are
/// copied one at a time.
PathObservations resample_snapshots(const PathObservations& obs, Rng& rng);

/// Answers every query by re-scanning its observations: the counts
/// sim::EmpiricalMeasurement's AND+popcount kernels must reproduce.
class ScalarMeasurement final : public sim::MeasurementProvider {
 public:
  explicit ScalarMeasurement(PathObservations obs);

  std::size_t path_count() const override { return obs_.path_count(); }
  double good_prob(PathId p) const override;
  double pair_good_prob(PathId a, PathId b) const override;
  double exact_pattern_prob(const PathIdSet& pattern) const override;
  std::size_t sample_count() const override { return obs_.snapshot_count(); }

 private:
  PathObservations obs_;
};

}  // namespace tomo::reference
