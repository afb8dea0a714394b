// Explicit joint-distribution congestion model.
//
// For each correlation set, the model stores a full probability table over
// the 2^|Cp| congestion states of that set; sets are sampled independently
// of each other. This is the most general representation the paper's model
// admits and the reference against which the structured models (common
// shock, router-derived) are tested.
#pragma once

#include <cstdint>
#include <vector>

#include "corr/correlation.hpp"

namespace tomo::corr {

/// Distribution over the states of one correlation set. `prob[mask]` is the
/// probability that exactly the members whose bit is set in `mask` are
/// congested (bit i = i-th link of the sorted member list).
struct SetDistribution {
  std::vector<double> prob;  // size 2^|Cp|, sums to 1
};

class JointTableModel final : public CongestionModel {
 public:
  /// One distribution per correlation set, in set order. Set sizes are
  /// limited to 20 links (the table is exponential).
  JointTableModel(CorrelationSets sets,
                  std::vector<SetDistribution> distributions);

  const CorrelationSets& sets() const override { return sets_; }
  void sample_block(Rng& rng, std::size_t count,
                    std::uint8_t* out) const override;
  double within_set_all_good(
      std::size_t set_index,
      const std::vector<LinkId>& links_in_set) const override;

  /// Direct table lookup of P(S^p = A) — cheaper and exacter than the
  /// base-class inclusion-exclusion.
  double state_prob(std::size_t set_index, std::uint32_t mask) const;

  /// Builds the table of any CongestionModel by exhaustive queries —
  /// useful for testing structured models against their explicit form.
  static JointTableModel from_model(const CongestionModel& model);

 private:
  std::uint32_t mask_of(std::size_t set_index,
                        const std::vector<LinkId>& links) const;

  CorrelationSets sets_;
  std::vector<SetDistribution> dist_;
  std::vector<std::vector<double>> cdf_;  // per set, for sampling
};

}  // namespace tomo::corr
