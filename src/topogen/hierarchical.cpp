#include "topogen/hierarchical.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "graph/routing.hpp"
#include "topogen/barabasi_albert.hpp"
#include "util/error.hpp"

namespace tomo::topogen {

GeneratedTopology generate_hierarchical(const HierarchicalParams& params) {
  TOMO_REQUIRE(params.endpoints >= 2, "need at least two vantage ASes");
  TOMO_REQUIRE(params.endpoints <= params.as_nodes,
               "more vantage ASes than ASes");
  TOMO_REQUIRE(params.borders_per_as >= 1, "need at least one border per AS");
  TOMO_REQUIRE(params.fabric_prob >= 0.0 && params.fabric_prob <= 1.0,
               "fabric probability must be in [0,1]");
  TOMO_REQUIRE(params.max_corrset_size >= 2,
               "correlation sets of size < 2 carry no correlation");
  Rng rng(mix_seed(params.seed, /*tag=*/0x42726974ULL));  // "Brit"

  // 1. AS-level graph.
  const auto edges =
      barabasi_albert_edges(params.as_nodes, params.ba_edges_per_node, rng);
  graph::Graph as_graph = to_directed_graph(params.as_nodes, edges, "as");

  // 2. Measurement mesh between vantage ASes over jittered shortest paths
  //    (the jitter diversifies routes the way hot-potato quirks would).
  std::vector<double> weights(as_graph.link_count());
  for (double& w : weights) {
    w = 1.0 + 0.05 * rng.uniform();
  }
  const std::vector<std::size_t> vantage_idx =
      rng.sample_without_replacement(params.as_nodes, params.endpoints);
  std::vector<graph::NodeId> vantages(vantage_idx.begin(), vantage_idx.end());
  std::vector<graph::Path> raw_paths =
      graph::mesh_paths(as_graph, vantages, weights);
  TOMO_REQUIRE(!raw_paths.empty(), "mesh produced no paths");

  // 3. Keep only covered links.
  PrunedSystem pruned = prune_to_covered(as_graph, raw_paths);

  GeneratedTopology out;
  out.graph = std::move(pruned.graph);
  out.paths = std::move(pruned.paths);

  // 4. Router-level substrate. Each AS owns a set of internal "fabric"
  //    router links (switch fabrics / core segments, the gray elements of
  //    the paper's Figure 2). A measured link crosses the fabric of one of
  //    its two endpoint ASes (whichever side the bottleneck segment
  //    happens to sit on), joining a fabric chunk there; chunks are capped
  //    at max_corrset_size. All measured links of one chunk share that
  //    router link — including *consecutive* links of a path traversing
  //    the AS, which is what correlates links along paths, not just across
  //    them.
  std::size_t next_router_link = 0;
  // Per-AS fabric bookkeeping, indexed directly by chunk id. (This used to
  // be two std::maps keyed by (as, chunk): at 2k-10k AS nodes the
  // per-link tree walks and node allocations turned the fabric assignment
  // superlinear. Chunk ids grow in steps of borders_per_as from a base
  // below it, so a plain per-node vector addresses them exactly; shared
  // router-link ids are handed out at first touch, in the same order as
  // the historical map insertion — output is byte-identical.)
  constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();
  struct FabricChunk {
    std::size_t fill = 0;
    std::size_t shared = kUnassigned;
  };
  std::vector<std::vector<FabricChunk>> fabric(out.graph.node_count());
  out.underlying.resize(out.graph.link_count());
  for (graph::LinkId e = 0; e < out.graph.link_count(); ++e) {
    const graph::Link& link = out.graph.link(e);
    if (rng.bernoulli(params.fabric_prob)) {
      const graph::NodeId side = rng.bernoulli(0.5) ? link.src : link.dst;
      // Spread the AS's links over borders_per_as parallel fabric groups,
      // then cap each group chunk at max_corrset_size.
      const std::size_t base_group = rng.below(params.borders_per_as);
      std::vector<FabricChunk>& chunks = fabric[side];
      for (std::size_t chunk = base_group;; chunk += params.borders_per_as) {
        if (chunk >= chunks.size()) chunks.resize(chunk + 1);
        FabricChunk& fc = chunks[chunk];
        if (fc.fill < params.max_corrset_size) {
          ++fc.fill;
          if (fc.shared == kUnassigned) fc.shared = next_router_link++;
          out.underlying[e].push_back(fc.shared);
          break;
        }
      }
    } else {
      // Dedicated bottleneck segment: correlated with nothing.
      out.underlying[e].push_back(next_router_link++);
    }
    // Dedicated inter-AS and far-side router links.
    out.underlying[e].push_back(next_router_link++);
    out.underlying[e].push_back(next_router_link++);
  }
  out.router_link_count = next_router_link;

  // 5. Correlation sets = connected components of the sharing graph. With
  //    one shared underlying link per measured link, components are
  //    precisely the fabric chunks. Bottleneck router-link ids are handed
  //    out in increasing order above, so a vector indexed by id replaces
  //    the historical ordered map (cells emitted in the same ascending-id
  //    order; slots of purely dedicated ids stay empty and are skipped).
  std::vector<std::vector<graph::LinkId>> groups(next_router_link);
  for (graph::LinkId e = 0; e < out.graph.link_count(); ++e) {
    groups[out.underlying[e][0]].push_back(e);
  }
  for (std::vector<graph::LinkId>& members : groups) {
    if (!members.empty()) out.partition.push_back(std::move(members));
  }

  std::ostringstream desc;
  desc << "hierarchical(as=" << params.as_nodes << ", vantage="
       << params.endpoints << "): " << out.graph.link_count() << " links, "
       << out.paths.size() << " paths, " << out.partition.size()
       << " correlation sets, " << out.router_link_count << " router links";
  out.description = desc.str();
  return out;
}

}  // namespace tomo::topogen
