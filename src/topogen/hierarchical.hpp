// Brite-substitute hierarchical (AS + router level) topology generator.
//
// The measured graph is an AS-level Barabási-Albert topology; unicast
// probes are routed between vantage ASes along jittered shortest paths.
// Each measured (AS-level) link is backed by a sequence of router-level
// links inside its endpoint ASes:
//
//   core_u -> border_u[i]   shared by all AS links leaving u via border i
//   border_u[i] -> border_v[j]   dedicated inter-AS link
//   border_v[j] -> core_v   dedicated per measured link (ingress side)
//
// Two AS-level links are correlated iff they share a router-level link —
// the paper's Brite derivation. Sharing only on the egress side keeps each
// correlation set equal to one egress border group, so set sizes stay
// bounded by `max_corrset_size` (border groups are chunked when an AS has
// very high degree).
#pragma once

#include <cstdint>

#include "topogen/generated.hpp"
#include "util/rng.hpp"

namespace tomo::topogen {

struct HierarchicalParams {
  std::size_t as_nodes = 60;
  std::size_t ba_edges_per_node = 2;
  std::size_t borders_per_as = 2;
  std::size_t max_corrset_size = 8;
  std::size_t endpoints = 16;  // vantage ASes for the measurement mesh
  /// Probability that a measured link's bottleneck segment lies on a
  /// *shared* fabric of one of its endpoint ASes (otherwise it is a
  /// dedicated segment and the link is uncorrelated with everything).
  /// Must lie in [0,1].
  double fabric_prob = 0.5;
  std::uint64_t seed = 1;
};

GeneratedTopology generate_hierarchical(const HierarchicalParams& params);

}  // namespace tomo::topogen
