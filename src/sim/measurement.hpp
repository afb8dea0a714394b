// Measurement providers: the algorithms' only window onto the network.
//
// The correlation algorithm builds every equation from one path (Eq. 9) or
// one path pair (Eq. 10), so it reads P(path good) and P(both paths good);
// the theorem algorithm additionally reads exact congested-path-pattern
// probabilities. MeasurementProvider is those three queries and nothing
// more. The numbers come from empirical snapshot counts
// (EmpiricalMeasurement) or the exact ground-truth model
// (OracleMeasurement in oracle.hpp), which isolates algorithmic error from
// sampling error in tests and ablations.
#pragma once

#include <cstddef>

#include "graph/coverage.hpp"
#include "sim/measurement_block.hpp"

namespace tomo::sim {

class MeasurementProvider {
 public:
  virtual ~MeasurementProvider() = default;

  virtual std::size_t path_count() const = 0;

  /// P(path `p` good) and P(paths `a` and `b` both good): the equation
  /// harvest's two queries.
  virtual double good_prob(PathId p) const = 0;
  virtual double pair_good_prob(PathId a, PathId b) const = 0;

  /// P(the congested-path set is exactly `pattern`).
  virtual double exact_pattern_prob(const PathIdSet& pattern) const = 0;

  /// Number of snapshots backing the estimates (0 = exact oracle).
  virtual std::size_t sample_count() const = 0;
};

/// Estimates from path-major good-snapshot bitmasks.
///
/// Adopts a MeasurementBlock as-is — no re-packing, no reference to keep
/// alive — so the harvest's pair_good_prob(p, q) is a word-wise AND +
/// popcount over the two rows.
class EmpiricalMeasurement final : public MeasurementProvider {
 public:
  /// Adopts the block directly (zero-copy hand-off when moved in).
  explicit EmpiricalMeasurement(MeasurementBlock block);

  /// Splices `window` onto the adopted block in place
  /// (MeasurementBlock::append); later queries cover the extended range.
  void append(const MeasurementBlock& window);

  std::size_t path_count() const override;
  double good_prob(PathId p) const override;
  double pair_good_prob(PathId a, PathId b) const override;
  double exact_pattern_prob(const PathIdSet& pattern) const override;
  std::size_t sample_count() const override;

  /// Number of snapshots in which path `p` was good (exact count, not a
  /// ratio — used by callers that compare against sample_count()).
  std::size_t good_count(PathId p) const;

  /// The underlying block.
  const MeasurementBlock& block() const { return block_; }

 private:
  MeasurementBlock block_;
};

}  // namespace tomo::sim
