// Common result type of the topology generators, plus the prune utility.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "graph/transform.hpp"
#include "util/rng.hpp"

namespace tomo::topogen {

/// A generated measured system: graph, measured paths, correlation sets,
/// and (for hierarchical generators) the router-level substrate that
/// explains the correlation.
struct GeneratedTopology {
  graph::Graph graph;
  std::vector<graph::Path> paths;
  graph::LinkPartition partition;

  /// Router-level link ids underlying each measured link (empty when the
  /// generator has no two-level structure).
  std::vector<std::vector<std::size_t>> underlying;
  std::size_t router_link_count = 0;

  std::string description;
};

/// Partitions links into "site" clusters of at most `target` links. Each
/// link is owned by one of its two endpoint nodes (chosen at random — the
/// side whose hidden switch fabric carries its bottleneck segment, the LAN
/// picture of the paper's Figure 2(a)); a node's owned links are chunked
/// into clusters of the target size. A cluster therefore mixes links
/// entering and leaving one site: correlated links can be parallel
/// (fan-in/fan-out) or consecutive along a path crossing the site. Links
/// that miss the fabric_prob draw get dedicated (singleton) sets. Throws
/// tomo::Error unless fabric_prob lies in [0,1] (NaN included).
graph::LinkPartition fabric_site_clusters(const graph::Graph& g,
                                          std::size_t target,
                                          double fabric_prob, Rng& rng);

/// Restricts a graph to the links covered by `paths` (the paper requires
/// every link to participate in a path; generators route first and then
/// drop dark links). Returns the new graph, rewritten paths, and the map
/// old-link -> new-link (size = old link count, npos for dropped links).
struct PrunedSystem {
  graph::Graph graph;
  std::vector<graph::Path> paths;
  std::vector<std::size_t> link_map;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};
PrunedSystem prune_to_covered(const graph::Graph& g,
                              const std::vector<graph::Path>& paths);

}  // namespace tomo::topogen
