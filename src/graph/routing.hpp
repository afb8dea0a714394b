// Shortest-path routing used to materialize measured paths.
//
// The topology generators route probes between vantage points the way
// traceroute would observe them: along (weighted) shortest paths. Weights
// default to hop count; generators can perturb them to diversify routes.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace tomo::graph {

/// All-pairs shortest paths between the given endpoints (ordered pairs,
/// src != dst), skipping unreachable pairs. This mimics a full-mesh
/// unicast measurement among vantage points. `weights` must either be
/// empty (hop count) or have one positive entry per link.
std::vector<Path> mesh_paths(const Graph& g,
                             const std::vector<NodeId>& endpoints,
                             const std::vector<double>& weights = {});

}  // namespace tomo::graph
