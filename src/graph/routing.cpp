#include "graph/routing.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <queue>

#include "util/error.hpp"

namespace tomo::graph {

namespace {

/// Dijkstra from `src`; returns for each node the incoming link on a
/// shortest path (or nullopt when unreachable).
std::vector<std::optional<LinkId>> shortest_path_tree(
    const Graph& g, NodeId src, const std::vector<double>& weights) {
  TOMO_REQUIRE(weights.empty() || weights.size() == g.link_count(),
               "weights must be empty or one per link");
  for (double w : weights) {
    TOMO_REQUIRE(w > 0.0, "link weights must be positive");
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(g.node_count(), inf);
  std::vector<std::optional<LinkId>> parent(g.node_count());
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
  dist[src] = 0.0;
  queue.emplace(0.0, src);
  while (!queue.empty()) {
    auto [d, node] = queue.top();
    queue.pop();
    if (d > dist[node]) continue;
    for (LinkId id : g.out_links(node)) {
      const double w = weights.empty() ? 1.0 : weights[id];
      const NodeId next = g.link(id).dst;
      if (dist[node] + w < dist[next]) {
        dist[next] = dist[node] + w;
        parent[next] = id;
        queue.emplace(dist[next], next);
      }
    }
  }
  return parent;
}

}  // namespace

std::vector<Path> mesh_paths(const Graph& g,
                             const std::vector<NodeId>& endpoints,
                             const std::vector<double>& weights) {
  std::vector<Path> paths;
  for (NodeId src : endpoints) {
    auto parent = shortest_path_tree(g, src, weights);
    for (NodeId dst : endpoints) {
      if (src == dst || !parent[dst]) continue;
      std::vector<LinkId> links;
      NodeId cursor = dst;
      while (cursor != src) {
        const LinkId id = *parent[cursor];
        links.push_back(id);
        cursor = g.link(id).src;
      }
      std::reverse(links.begin(), links.end());
      paths.emplace_back(g, std::move(links));
    }
  }
  return paths;
}

}  // namespace tomo::graph
