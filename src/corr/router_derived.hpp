// Router-derived congestion model (the paper's Brite setup, §5).
//
// Each measured (logical, e.g. AS-level) link maps to a sequence of
// underlying router-level links; router-level links are independent
// Bernoulli. A logical link is congested iff any of its underlying links
// is congested, so logical links sharing an underlying link are correlated
// — exactly the paper's derivation of AS-level correlation from the
// router-level topology.
//
// The declared correlation sets must be consistent: two logical links that
// share an underlying link must be in the same set (the hierarchical
// generator produces sets as connected components of the sharing graph).
#pragma once

#include <cstdint>
#include <vector>

#include "corr/correlation.hpp"

namespace tomo::corr {

class RouterDerivedModel final : public CongestionModel {
 public:
  /// `underlying[k]` lists the router-level link ids composing logical link
  /// k; `router_prob[r]` = P(router-level link r congested).
  RouterDerivedModel(CorrelationSets sets,
                     std::vector<std::vector<std::size_t>> underlying,
                     std::vector<double> router_prob);

  const CorrelationSets& sets() const override { return sets_; }
  void sample_block(Rng& rng, std::size_t count,
                    std::uint8_t* out) const override;
  double within_set_all_good(
      std::size_t set_index,
      const std::vector<LinkId>& links_in_set) const override;

  std::size_t router_link_count() const { return router_prob_.size(); }
  const std::vector<std::size_t>& underlying(LinkId link) const;

 private:
  CorrelationSets sets_;
  std::vector<std::vector<std::size_t>> underlying_;
  std::vector<double> router_prob_;
};

}  // namespace tomo::corr
