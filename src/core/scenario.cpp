#include "core/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_set>

#include "corr/identifiability.hpp"
#include "corr/model_factory.hpp"
#include "topogen/flat_mesh.hpp"
#include "topogen/hierarchical.hpp"
#include "topogen/planetlab_like.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::core {

namespace {

/// Picks the congested links according to the clustering level: kHigh fills
/// >= 3 congested links into each touched set (where the set is large
/// enough), kLoose caps every set at 2.
std::vector<graph::LinkId> pick_congested(
    const corr::CorrelationSets& sets, const graph::CoverageIndex& coverage,
    std::size_t target, CorrelationLevel level, Rng& rng) {
  std::vector<std::size_t> order(sets.set_count());
  for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
  rng.shuffle(order);
  if (level == CorrelationLevel::kHigh) {
    // Visit large, heavily traversed sets first: shared fabrics on busy
    // aggregation points are where real congestion clusters, and the
    // >2-per-set requirement needs large sets anyway.
    std::vector<double> weight(sets.set_count(), 0.0);
    for (std::size_t s = 0; s < sets.set_count(); ++s) {
      if (sets.set(s).size() < 2) continue;
      for (graph::LinkId e : sets.set(s)) {
        weight[s] += static_cast<double>(coverage.paths_through(e).size());
      }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return weight[a] > weight[b];
                     });
  }

  std::vector<graph::LinkId> congested;
  for (std::size_t s : order) {
    if (congested.size() >= target) break;
    const auto& members = sets.set(s);
    std::size_t take;
    if (level == CorrelationLevel::kHigh) {
      take = std::min(members.size(), target - congested.size());
    } else {
      take = std::min<std::size_t>(2, members.size());
      take = std::min(take, target - congested.size());
    }
    if (take == 0) continue;
    const auto chosen = rng.sample_without_replacement(members.size(), take);
    for (std::size_t idx : chosen) {
      congested.push_back(members[idx]);
    }
  }
  std::sort(congested.begin(), congested.end());
  return congested;
}

/// Mutates the partition until at least `target` of the congested links are
/// structurally unidentifiable: repeatedly picks an intermediate node
/// adjacent to a congested link and fuses all its in/out links into one
/// correlation set.
graph::LinkPartition inject_unidentifiability(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    graph::LinkPartition partition,
    const std::vector<graph::LinkId>& congested, std::size_t target,
    Rng& rng) {
  if (target == 0) return partition;
  std::unordered_set<graph::LinkId> congested_set(congested.begin(),
                                                  congested.end());
  std::unordered_set<graph::NodeId> endpoints;
  for (const auto& p : paths) {
    endpoints.insert(p.source());
    endpoints.insert(p.destination());
  }
  std::vector<graph::NodeId> nodes(g.node_count());
  for (graph::NodeId v = 0; v < g.node_count(); ++v) nodes[v] = v;
  rng.shuffle(nodes);

  auto unident_congested_count = [&](const graph::LinkPartition& part) {
    corr::CorrelationSets sets(g.link_count(), part);
    std::size_t count = 0;
    for (graph::LinkId e :
         corr::structurally_unidentifiable_links(g, paths, sets)) {
      if (congested_set.count(e)) ++count;
    }
    return count;
  };

  for (graph::NodeId v : nodes) {
    if (unident_congested_count(partition) >= target) break;
    if (endpoints.count(v)) continue;
    const auto& in = g.in_links(v);
    const auto& out = g.out_links(v);
    if (in.empty() || out.empty()) continue;
    bool touches_congested = false;
    for (graph::LinkId e : in) touches_congested |= congested_set.count(e) > 0;
    for (graph::LinkId e : out) touches_congested |= congested_set.count(e) > 0;
    if (!touches_congested) continue;
    // Fuse: remove v's links from their sets, add them as one new set.
    std::unordered_set<graph::LinkId> fused(in.begin(), in.end());
    fused.insert(out.begin(), out.end());
    graph::LinkPartition next;
    for (auto& cell : partition) {
      std::vector<graph::LinkId> keep;
      for (graph::LinkId e : cell) {
        if (!fused.count(e)) keep.push_back(e);
      }
      if (!keep.empty()) next.push_back(std::move(keep));
    }
    std::vector<graph::LinkId> fused_cell(fused.begin(), fused.end());
    std::sort(fused_cell.begin(), fused_cell.end());
    next.push_back(std::move(fused_cell));
    partition = std::move(next);
  }
  return partition;
}

/// Picks worm targets: congested links drawn from pairwise-distinct
/// correlation sets ("otherwise uncorrelated" links).
std::vector<graph::LinkId> pick_worm_targets(
    const corr::CorrelationSets& sets,
    const std::vector<graph::LinkId>& congested, std::size_t target,
    Rng& rng) {
  std::vector<graph::LinkId> shuffled = congested;
  rng.shuffle(shuffled);
  std::unordered_set<std::size_t> used_sets;
  std::vector<graph::LinkId> targets;
  for (graph::LinkId e : shuffled) {
    if (targets.size() >= target) break;
    if (used_sets.insert(sets.set_of(e)).second) {
      targets.push_back(e);
    }
  }
  // If distinct sets run out (tiny topologies), fall back to any congested
  // links so the requested fraction is honoured.
  for (graph::LinkId e : shuffled) {
    if (targets.size() >= target) break;
    if (std::find(targets.begin(), targets.end(), e) == targets.end()) {
      targets.push_back(e);
    }
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

}  // namespace

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kBrite:
      return "brite";
    case TopologyKind::kPlanetLab:
      return "planetlab";
    case TopologyKind::kWaxman:
      return "waxman";
    case TopologyKind::kBarabasiAlbert:
      return "barabasi-albert";
  }
  return "unknown";
}

ScenarioInstance build_scenario(const ScenarioConfig& config) {
  TOMO_REQUIRE(config.congested_fraction > 0.0 &&
                   config.congested_fraction <= 1.0,
               "congested fraction must be in (0,1]");
  TOMO_REQUIRE(config.marginal_lo > 0.0 &&
                   config.marginal_lo <= config.marginal_hi &&
                   config.marginal_hi < 1.0,
               "marginal range must satisfy 0 < lo <= hi < 1");
  TOMO_REQUIRE(config.burst_length >= 1.0,
               "burst length must be >= 1 snapshot");
  Rng rng(mix_seed(config.seed, /*tag=*/0x5363656eULL));  // "Scen"

  ScenarioInstance inst;
  graph::LinkPartition partition;
  if (config.topology == TopologyKind::kBrite) {
    topogen::HierarchicalParams params;
    params.as_nodes = config.as_nodes;
    params.endpoints = config.as_endpoints;
    params.max_corrset_size = std::max<std::size_t>(2, config.cluster_size);
    params.fabric_prob = config.fabric_prob;
    params.seed = rng();
    auto topo = topogen::generate_hierarchical(params);
    inst.graph = std::move(topo.graph);
    inst.paths = std::move(topo.paths);
    partition = std::move(topo.partition);
    inst.description = topo.description;
  } else if (config.topology == TopologyKind::kPlanetLab) {
    topogen::PlanetLabParams params;
    params.routers = config.routers;
    params.vantage_points = config.vantage_points;
    params.cluster_size = config.cluster_size;
    params.fabric_prob = config.fabric_prob;
    params.seed = rng();
    auto topo = topogen::generate_planetlab_like(params);
    inst.graph = std::move(topo.graph);
    inst.paths = std::move(topo.paths);
    partition = std::move(topo.partition);
    inst.description = topo.description;
  } else {
    topogen::FlatMeshParams params;
    params.model = config.topology == TopologyKind::kWaxman
                       ? topogen::FlatMeshParams::EdgeModel::kWaxman
                       : topogen::FlatMeshParams::EdgeModel::kBarabasiAlbert;
    params.nodes = config.routers;
    params.vantage_points = config.vantage_points;
    params.cluster_size = config.cluster_size;
    params.fabric_prob = config.fabric_prob;
    params.waxman.alpha = config.waxman_alpha;
    params.waxman.beta = config.waxman_beta;
    params.ba_edges_per_node = config.ba_edges_per_node;
    params.seed = rng();
    auto topo = topogen::generate_flat_mesh(params);
    inst.graph = std::move(topo.graph);
    inst.paths = std::move(topo.paths);
    partition = std::move(topo.partition);
    inst.description = topo.description;
  }

  const std::size_t link_count = inst.graph.link_count();
  const std::size_t congested_target = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config.congested_fraction *
                          static_cast<double>(link_count))));

  // Congested links are chosen against the pre-mutation correlation sets.
  corr::CorrelationSets base_sets(link_count, partition);
  const graph::CoverageIndex coverage(inst.graph, inst.paths);
  inst.congested_links = pick_congested(base_sets, coverage,
                                        congested_target, config.level, rng);

  // Fig. 4: break identifiability around congested links.
  if (config.unidentifiable_fraction > 0.0) {
    const std::size_t unident_target = static_cast<std::size_t>(
        std::llround(config.unidentifiable_fraction *
                     static_cast<double>(inst.congested_links.size())));
    partition = inject_unidentifiability(inst.graph, inst.paths, partition,
                                         inst.congested_links,
                                         unident_target, rng);
  }
  inst.declared_sets = corr::CorrelationSets(link_count, partition);

  // Ground-truth marginals for the congested links. Links in the same
  // correlation set draw around a common set-level base: the congestion of
  // a shared resource dominates each member's marginal, which is what a
  // shared physical link or switch fabric produces (and what makes the
  // common shock strong rather than capped by one outlier-low marginal).
  std::vector<double> set_base(inst.declared_sets.set_count(), 0.0);
  for (double& b : set_base) {
    b = rng.uniform(config.marginal_lo, config.marginal_hi);
  }
  std::vector<double> marginals(inst.congested_links.size());
  for (std::size_t i = 0; i < marginals.size(); ++i) {
    const double base =
        set_base[inst.declared_sets.set_of(inst.congested_links[i])];
    marginals[i] = std::clamp(base * rng.uniform(0.95, 1.05),
                              config.marginal_lo * 0.5, 0.95);
  }
  // A burst length of 1 keeps the memoryless shock (Shock::burst_length 0).
  std::unique_ptr<corr::CongestionModel> truth =
      corr::make_clustered_shock_model(
          inst.declared_sets, inst.congested_links, marginals,
          config.correlation_strength,
          config.burst_length > 1.0 ? config.burst_length : 0.0);

  // Fig. 5: hidden worm correlation across sets.
  if (config.mislabeled_fraction > 0.0) {
    const std::size_t worm_target = static_cast<std::size_t>(
        std::llround(config.mislabeled_fraction *
                     static_cast<double>(inst.congested_links.size())));
    inst.mislabeled_links = pick_worm_targets(
        inst.declared_sets, inst.congested_links, worm_target, rng);
    truth = corr::make_worm_model(std::move(truth), inst.mislabeled_links,
                                  config.worm_rho);
  }
  inst.truth = std::move(truth);
  inst.true_marginals = inst.truth->marginals();

  // Diagnostics: which congested links ended up unidentifiable.
  const auto unident = corr::structurally_unidentifiable_links(
      inst.graph, inst.paths, inst.declared_sets);
  std::unordered_set<graph::LinkId> unident_set(unident.begin(),
                                                unident.end());
  for (graph::LinkId e : inst.congested_links) {
    if (unident_set.count(e)) {
      inst.unidentifiable_congested.push_back(e);
    }
  }
  return inst;
}

}  // namespace tomo::core
