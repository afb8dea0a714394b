#include "topogen/generated.hpp"

#include "util/error.hpp"

namespace tomo::topogen {

graph::LinkPartition fabric_site_clusters(const graph::Graph& g,
                                          std::size_t target,
                                          double fabric_prob, Rng& rng) {
  TOMO_REQUIRE(fabric_prob >= 0.0 && fabric_prob <= 1.0,
               "fabric probability must be in [0,1]");
  std::vector<std::vector<graph::LinkId>> owned(g.node_count());
  graph::LinkPartition partition;
  for (graph::LinkId e = 0; e < g.link_count(); ++e) {
    const graph::Link& link = g.link(e);
    if (rng.bernoulli(fabric_prob)) {
      owned[rng.bernoulli(0.5) ? link.src : link.dst].push_back(e);
    } else {
      partition.push_back({e});  // dedicated bottleneck: singleton
    }
  }
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    std::vector<graph::LinkId> pending;
    for (graph::LinkId e : owned[v]) {
      pending.push_back(e);
      if (pending.size() == target) {
        partition.push_back(std::move(pending));
        pending.clear();
      }
    }
    if (!pending.empty()) {
      partition.push_back(std::move(pending));
    }
  }
  return partition;
}

PrunedSystem prune_to_covered(const graph::Graph& g,
                              const std::vector<graph::Path>& paths) {
  std::vector<bool> used(g.link_count(), false);
  for (const graph::Path& p : paths) {
    for (graph::LinkId e : p.links()) {
      used[e] = true;
    }
  }
  PrunedSystem out;
  out.link_map.assign(g.link_count(), PrunedSystem::npos);
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    out.graph.add_node(g.node_name(v));
  }
  for (graph::LinkId e = 0; e < g.link_count(); ++e) {
    if (!used[e]) continue;
    out.link_map[e] = out.graph.add_link(g.link(e).src, g.link(e).dst);
  }
  out.paths.reserve(paths.size());
  for (const graph::Path& p : paths) {
    std::vector<graph::LinkId> links;
    links.reserve(p.length());
    for (graph::LinkId e : p.links()) {
      TOMO_ASSERT(out.link_map[e] != PrunedSystem::npos);
      links.push_back(out.link_map[e]);
    }
    out.paths.emplace_back(out.graph, std::move(links));
  }
  return out;
}

}  // namespace tomo::topogen
