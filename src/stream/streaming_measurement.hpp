// The measurement provider that grows as windows arrive.
//
// StreamingMeasurement holds one sim::EmpiricalMeasurement over every
// snapshot seen so far and splices each arriving window onto it in place
// (MeasurementBlock::append: bit-exact, ragged offsets included), so the
// cumulative block exists once and a window costs only its splice. Every
// query is answered by that batch provider over the cumulative block.
// Because the cumulative block after k appends is bit-identical to the
// batch block over the same snapshots, a harvest run against this provider
// is byte-identical to the batch harvest at every window boundary; that is
// the streamed-vs-batch equivalence contract tests/test_streaming_fast.cpp
// pins.
#pragma once

#include <optional>
#include <vector>

#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"

namespace tomo::stream {

class StreamingMeasurement final : public sim::MeasurementProvider {
 public:
  explicit StreamingMeasurement(std::size_t path_count);

  /// Splices `window` onto the cumulative block. Every query afterwards
  /// covers the extended snapshot range.
  void append(const sim::MeasurementBlock& window);

  std::size_t window_count() const { return windows_; }

  /// The cumulative block (empty before the first append).
  const sim::MeasurementBlock& block() const;

  // MeasurementProvider over the snapshots ingested so far. Queries
  // require at least one appended window.
  std::size_t path_count() const override { return path_count_; }
  double good_prob(sim::PathId p) const override;
  double pair_good_prob(sim::PathId a, sim::PathId b) const override;
  double exact_pattern_prob(const sim::PathIdSet& pattern) const override;
  std::size_t sample_count() const override;

 private:
  const sim::EmpiricalMeasurement& view() const;

  std::size_t path_count_;
  std::size_t windows_ = 0;
  // The batch provider over the cumulative block, created by the first
  // append (it needs observations) and grown in place by the rest.
  std::optional<sim::EmpiricalMeasurement> measurement_;
};

/// Splits a complete block into consecutive windows of `window_snapshots`
/// snapshots (final window ragged). Appending the result in order
/// reconstructs `block` bit-for-bit — the replay path of the daemon and
/// the equivalence tests.
std::vector<sim::MeasurementBlock> split_windows(
    const sim::MeasurementBlock& block, std::size_t window_snapshots);

}  // namespace tomo::stream
