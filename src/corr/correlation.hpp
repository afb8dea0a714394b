// Correlation sets and the congestion-model interface (paper §2.1).
//
// Links are partitioned into correlation sets: links within a set may be
// arbitrarily correlated, links in different sets are independent. A
// CongestionModel is the ground truth of an experiment: it samples blocks
// of snapshots of the congested-link indicator and answers exact probability
// queries (used by the oracle estimator and the theorem algorithm's
// reference values).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "graph/transform.hpp"
#include "util/rng.hpp"

namespace tomo::corr {

using graph::LinkId;
using graph::LinkPartition;

/// The known partition of links into correlation sets.
class CorrelationSets {
 public:
  /// Empty structure (no links); placeholder until a real one is assigned.
  CorrelationSets() = default;

  /// `partition` must cover links 0..link_count-1 exactly once.
  CorrelationSets(std::size_t link_count, LinkPartition partition);

  /// Every link alone: the classic uncorrelated-links assumption.
  static CorrelationSets singletons(std::size_t link_count);

  std::size_t link_count() const { return set_of_.size(); }
  std::size_t set_count() const { return partition_.size(); }

  const std::vector<LinkId>& set(std::size_t index) const;
  std::size_t set_of(LinkId link) const;

  /// True iff no two distinct links in `links` share a correlation set —
  /// the precondition for a §4 equation to introduce no joint unknowns.
  bool correlation_free(const std::vector<LinkId>& links) const;

  const LinkPartition& partition() const { return partition_; }

 private:
  LinkPartition partition_;
  std::vector<std::size_t> set_of_;
};

/// A non-empty subset of one correlation set (an element of C-tilde).
struct CorrelationSubset {
  std::size_t set_index;
  std::vector<LinkId> links;  // sorted ascending
};

/// Enumerates C-tilde, the set of all correlation subsets. Throws
/// tomo::Error if any correlation set exceeds `max_set_size` (the count is
/// exponential in the set size).
std::vector<CorrelationSubset> enumerate_correlation_subsets(
    const CorrelationSets& sets, std::size_t max_set_size = 20);

/// Ground-truth congestion behaviour of all links during an experiment.
class CongestionModel {
 public:
  virtual ~CongestionModel() = default;

  /// The correlation structure this model declares. (CrossSetShockModel
  /// deliberately *violates* its declared structure — that is the paper's
  /// "unknown correlation pattern" scenario.)
  virtual const CorrelationSets& sets() const = 0;

  std::size_t link_count() const { return sets().link_count(); }

  /// Samples the congestion indicator of every link for `count`
  /// consecutive snapshots into `out`, snapshot-major (snapshot n occupies
  /// out[n*link_count() .. (n+1)*link_count())) — the only way a model
  /// draws; one snapshot is count = 1. Each call is its own timeline: it
  /// reads and advances no member state, so concurrent calls with distinct
  /// `rng`/`out` are safe. A model with memory across snapshots (a bursty
  /// shock) starts it from the stationary distribution at every call, so
  /// the per-snapshot marginal law is the same for any `count` while
  /// temporal correlation truncates at call edges.
  virtual void sample_block(Rng& rng, std::size_t count,
                            std::uint8_t* out) const = 0;

  /// Exact P(all links in `links` good). Links may span correlation sets.
  /// The default factorizes across correlation sets via
  /// within_set_all_good(); models with cross-set dependence override it.
  virtual double prob_all_good(const std::vector<LinkId>& links) const;

  /// Exact P(all links in `links_in_set` good) for links inside the given
  /// correlation set.
  virtual double within_set_all_good(
      std::size_t set_index, const std::vector<LinkId>& links_in_set) const = 0;

  /// Marginal congestion probability P(X_e = 1).
  double marginal(LinkId link) const;

  /// All marginals as a vector (the quantity the algorithms estimate).
  std::vector<double> marginals() const;

  /// Exact P(S^p = A): the links in `subset` are the only congested links
  /// of correlation set `set_index` (paper's per-set state probability).
  /// Computed by inclusion-exclusion over prob_all_good(), so it remains
  /// correct even for models with cross-set dependence (the event is then
  /// the marginal over other sets). Cost is 2^|subset|.
  double set_state_prob(std::size_t set_index,
                        const std::vector<LinkId>& subset) const;
};

/// Links are independent with per-link congestion probability p[k]. This is
/// both the classic tomography assumption and the building block for other
/// models.
class IndependentModel final : public CongestionModel {
 public:
  /// `congestion_prob[k]` = P(X_k = 1); sets may be any partition (the
  /// declared structure does not change independent behaviour).
  IndependentModel(CorrelationSets sets, std::vector<double> congestion_prob);

  const CorrelationSets& sets() const override { return sets_; }
  void sample_block(Rng& rng, std::size_t count,
                    std::uint8_t* out) const override;
  double within_set_all_good(
      std::size_t set_index,
      const std::vector<LinkId>& links_in_set) const override;

 private:
  CorrelationSets sets_;
  std::vector<double> p_;
};

}  // namespace tomo::corr
