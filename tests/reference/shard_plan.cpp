#include "reference/shard_plan.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>

#include "util/error.hpp"

namespace tomo::reference {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Plain union-find with path halving.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

core::ShardPlan plan_shards(const std::vector<graph::Path>& paths,
                            const graph::CoverageIndex& coverage,
                            const corr::CorrelationSets& sets,
                            std::size_t max_shard_paths) {
  TOMO_REQUIRE(coverage.path_count() == paths.size(),
               "plan_shards: coverage and paths disagree on path count");
  TOMO_REQUIRE(coverage.link_count() == sets.link_count(),
               "plan_shards: coverage and sets disagree on link count");
  const std::size_t link_count = coverage.link_count();
  const std::size_t path_count = coverage.path_count();

  // Stage 1: vantage-point clusters — all paths sharing a source node, in
  // first-appearance (hence path-id) order.
  std::vector<std::vector<graph::PathId>> clusters;
  {
    std::unordered_map<graph::NodeId, std::size_t> index;
    for (graph::PathId p = 0; p < path_count; ++p) {
      auto [it, fresh] = index.emplace(paths[p].source(), clusters.size());
      if (fresh) clusters.emplace_back();
      clusters[it->second].push_back(p);
    }
  }

  // Stage 2: merge clusters into link-disjoint, correlation-closed
  // components. Two links are tied when a path traverses both or a
  // correlation set holds both; a cluster joins the component of every
  // link tie-class its paths touch.
  DisjointSet links(link_count);
  for (graph::PathId p = 0; p < path_count; ++p) {
    const auto& pl = coverage.links_of(p);
    for (std::size_t i = 1; i < pl.size(); ++i) links.unite(pl[0], pl[i]);
  }
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    const auto& cell = sets.set(s);
    for (std::size_t i = 1; i < cell.size(); ++i)
      links.unite(cell[0], cell[i]);
  }
  DisjointSet cluster_uf(clusters.size());
  {
    std::vector<std::size_t> owner(link_count, kNone);
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      for (graph::PathId p : clusters[c]) {
        const std::size_t root = links.find(coverage.links_of(p).front());
        if (owner[root] == kNone) {
          owner[root] = c;
        } else {
          cluster_uf.unite(owner[root], c);
        }
      }
    }
  }
  std::vector<std::vector<std::size_t>> components;
  {
    std::vector<std::size_t> comp_of_root(clusters.size(), kNone);
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      const std::size_t root = cluster_uf.find(c);
      if (comp_of_root[root] == kNone) {
        comp_of_root[root] = components.size();
        components.emplace_back();
      }
      components[comp_of_root[root]].push_back(c);
    }
  }

  // Stage 3: one shard per component, unless a component exceeds the cap —
  // then its clusters are re-packed greedily by link overlap with the
  // growing shard (the greedy min-cut: affine clusters share links, so
  // packing them together keeps those links off the cut).
  core::ShardPlan plan;
  std::vector<graph::LinkId> cluster_link_scratch;
  std::vector<std::uint8_t> in_shard(link_count, 0);
  const auto cluster_links = [&](std::size_t c) {
    cluster_link_scratch.clear();
    for (graph::PathId p : clusters[c]) {
      const auto& pl = coverage.links_of(p);
      cluster_link_scratch.insert(cluster_link_scratch.end(), pl.begin(),
                                  pl.end());
    }
    std::sort(cluster_link_scratch.begin(), cluster_link_scratch.end());
    cluster_link_scratch.erase(std::unique(cluster_link_scratch.begin(),
                                           cluster_link_scratch.end()),
                               cluster_link_scratch.end());
    return std::cref(cluster_link_scratch);
  };
  const auto emit_shard = [&](const std::vector<std::size_t>& members) {
    core::Shard shard;
    for (std::size_t c : members) {
      shard.paths.insert(shard.paths.end(), clusters[c].begin(),
                         clusters[c].end());
    }
    std::sort(shard.paths.begin(), shard.paths.end());
    for (graph::PathId p : shard.paths) {
      const auto& pl = coverage.links_of(p);
      shard.links.insert(shard.links.end(), pl.begin(), pl.end());
    }
    std::sort(shard.links.begin(), shard.links.end());
    shard.links.erase(std::unique(shard.links.begin(), shard.links.end()),
                      shard.links.end());
    plan.shards.push_back(std::move(shard));
  };

  for (const std::vector<std::size_t>& comp : components) {
    std::size_t total = 0;
    for (std::size_t c : comp) total += clusters[c].size();
    if (max_shard_paths == 0 || total <= max_shard_paths) {
      emit_shard(comp);
      continue;
    }
    std::vector<std::uint8_t> used(comp.size(), 0);
    std::size_t remaining = comp.size();
    while (remaining > 0) {
      std::vector<std::size_t> members;
      std::size_t shard_paths = 0;
      // Seed with the lowest-index unused cluster (always taken, even if
      // it alone exceeds the cap — clusters are the atomic unit).
      for (std::size_t i = 0; i < comp.size(); ++i) {
        if (used[i]) continue;
        members.push_back(comp[i]);
        shard_paths = clusters[comp[i]].size();
        used[i] = 1;
        --remaining;
        for (graph::LinkId e : cluster_links(comp[i]).get()) in_shard[e] = 1;
        break;
      }
      // Grow: among clusters that still fit, take the one overlapping the
      // shard's links the most (ties break to the lowest index).
      while (remaining > 0) {
        std::size_t best = kNone;
        std::size_t best_overlap = 0;
        for (std::size_t i = 0; i < comp.size(); ++i) {
          if (used[i]) continue;
          if (shard_paths + clusters[comp[i]].size() > max_shard_paths)
            continue;
          std::size_t overlap = 0;
          for (graph::LinkId e : cluster_links(comp[i]).get()) {
            overlap += in_shard[e];
          }
          if (best == kNone || overlap > best_overlap) {
            best = i;
            best_overlap = overlap;
          }
        }
        if (best == kNone) break;
        members.push_back(comp[best]);
        shard_paths += clusters[comp[best]].size();
        used[best] = 1;
        --remaining;
        for (graph::LinkId e : cluster_links(comp[best]).get()) {
          in_shard[e] = 1;
        }
      }
      for (std::size_t c : members) {
        for (graph::PathId p : clusters[c]) {
          for (graph::LinkId e : coverage.links_of(p)) in_shard[e] = 0;
        }
      }
      emit_shard(members);
    }
  }

  plan.shards_of_link.assign(link_count, {});
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    for (graph::LinkId e : plan.shards[s].links) {
      plan.shards_of_link[e].push_back(s);
    }
  }
  for (graph::LinkId e = 0; e < link_count; ++e) {
    if (plan.shards_of_link[e].size() > 1) ++plan.shared_links;
  }
  return plan;
}

}  // namespace tomo::reference
