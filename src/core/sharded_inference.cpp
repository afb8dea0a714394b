#include "core/sharded_inference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "corr/identifiability.hpp"
#include "sim/measurement.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace tomo::core {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Plain union-find with path halving (the partitioner's only data
/// structure; no ranks needed at these sizes).
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

ShardPlan plan_shards(const std::vector<graph::Path>& paths,
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
  ShardPlan plan;
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
    Shard shard;
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

namespace {

/// Everything a shard's worker leaves behind for the merge step.
struct ShardRun {
  std::vector<double> log_good;  // local link ids
  EquationSystem system;         // local link ids (joint re-solve)
  ShardTelemetry telemetry;
};

}  // namespace

ShardedInferenceResult infer_sharded(const graph::Graph& g,
                                     const std::vector<graph::Path>& paths,
                                     const graph::CoverageIndex& coverage,
                                     const corr::CorrelationSets& sets,
                                     const sim::MeasurementBlock& block,
                                     const ShardedOptions& options) {
  TOMO_REQUIRE(block.path_count == paths.size(),
               "infer_sharded: block and paths disagree on path count");
  TOMO_REQUIRE(coverage.link_count() == sets.link_count(),
               "infer_sharded: coverage and sets disagree on link count");
  TOMO_REQUIRE(coverage.all_links_covered(),
               "infer_sharded: every link must be covered by a path");
  const std::size_t link_count = coverage.link_count();

  ShardedInferenceResult result;

  // The Assumption-4 structural refinement is hoisted to the full system:
  // the criterion consults a node's complete ingress/egress link lists, so
  // running it per shard (where those lists are restricted to shard links)
  // would demote links the monolithic pipeline does not.
  corr::CorrelationSets refined = sets;
  InferenceOptions shard_opts = options.inference;
  if (options.inference.refine_unidentifiable) {
    result.refined_links =
        corr::structurally_unidentifiable_links(g, paths, sets);
    if (!result.refined_links.empty()) {
      refined = demote_to_singletons(sets, result.refined_links);
    }
    shard_opts.refine_unidentifiable = false;
  }

  result.plan =
      plan_shards(paths, coverage, refined, options.max_shard_paths);
  const ShardPlan& plan = result.plan;
  result.shard_of.assign(link_count, 0);
  for (graph::LinkId e = 0; e < link_count; ++e) {
    result.shard_of[e] = plan.shards_of_link[e].front();
  }
  result.reconciled.assign(link_count, 0);
  result.residual_gap.assign(link_count, 0.0);

  // Per-shard pipeline, fanned across the pool. Every shard writes only its
  // slot, so the merge below — and hence the whole result — is
  // bit-identical for any jobs value.
  std::vector<ShardRun> runs(plan.shards.size());
  util::parallel_for(
      options.jobs, plan.shards.size(), [&](std::size_t s) {
        const Shard& shard = plan.shards[s];
        ShardRun& run = runs[s];
        run.telemetry.paths = shard.paths.size();
        run.telemetry.links = shard.links.size();

        // Local re-indexing: same node ids, shard links renumbered in
        // ascending global order (so local sort order equals global sort
        // order everywhere downstream). Re-indexing is what keeps each
        // shard's system |E_s| columns wide instead of |E| — the whole
        // point of sharding.
        graph::Graph lg;
        for (graph::NodeId n = 0; n < g.node_count(); ++n) lg.add_node();
        std::vector<std::size_t> local_of(link_count, kNone);
        for (std::size_t i = 0; i < shard.links.size(); ++i) {
          const graph::Link& lk = g.link(shard.links[i]);
          lg.add_link(lk.src, lk.dst);
          local_of[shard.links[i]] = i;
        }
        std::vector<graph::Path> lpaths;
        lpaths.reserve(shard.paths.size());
        for (graph::PathId p : shard.paths) {
          std::vector<graph::LinkId> ll;
          ll.reserve(coverage.links_of(p).size());
          for (graph::LinkId e : coverage.links_of(p)) {
            ll.push_back(local_of[e]);
          }
          lpaths.emplace_back(lg, std::move(ll));
        }
        const graph::CoverageIndex lcov(lg, lpaths);
        graph::LinkPartition lpart;
        {
          std::vector<std::size_t> cell_of(refined.set_count(), kNone);
          for (std::size_t i = 0; i < shard.links.size(); ++i) {
            const std::size_t gs = refined.set_of(shard.links[i]);
            if (cell_of[gs] == kNone) {
              cell_of[gs] = lpart.size();
              lpart.emplace_back();
            }
            lpart[cell_of[gs]].push_back(i);
          }
        }
        const corr::CorrelationSets lsets(shard.links.size(),
                                          std::move(lpart));
        sim::MeasurementBlock lblock = block.select_paths(shard.paths);

        try {
          const sim::EmpiricalMeasurement measurement(std::move(lblock));
          InferenceResult inf = infer_congestion(lg, lpaths, lcov, lsets,
                                                 measurement, shard_opts);
          run.log_good = std::move(inf.log_good);
          run.system = std::move(inf.system);
          run.telemetry.equations = run.system.equations.size();
          run.telemetry.refined_links = inf.refined_links.size();
          run.telemetry.solve_seconds = inf.solve_seconds;
        } catch (const Error&) {
          // No usable equation in this shard: its links are unconstrained,
          // which the monolithic solver models as log_good = 0.
          run.telemetry.failed = true;
          run.log_good.assign(shard.links.size(), 0.0);
        }
      });

  for (const ShardRun& run : runs) {
    result.shards.push_back(run.telemetry);
    result.solve_seconds += run.telemetry.solve_seconds;
  }

  const auto local_index = [&plan](std::size_t s, graph::LinkId e) {
    const auto& links = plan.shards[s].links;
    return static_cast<std::size_t>(
        std::lower_bound(links.begin(), links.end(), e) - links.begin());
  };

  // Merge + reconciliation. Exclusive links copy their shard's estimate;
  // shared links take the plain log-space mean when the shards agree, and
  // queue for a joint re-solve when they don't.
  result.log_good.assign(link_count, 0.0);
  std::vector<graph::LinkId> disputed;
  for (graph::LinkId e = 0; e < link_count; ++e) {
    const auto& cover = plan.shards_of_link[e];
    if (cover.size() == 1) {
      result.log_good[e] = runs[cover[0]].log_good[local_index(cover[0], e)];
      continue;
    }
    result.reconciled[e] = 1;
    double lo = 0.0, hi = 0.0, sum = 0.0;
    for (std::size_t k = 0; k < cover.size(); ++k) {
      const std::size_t s = cover[k];
      const double x = runs[s].log_good[local_index(s, e)];
      if (k == 0) {
        lo = hi = x;
      } else {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      sum += x;
    }
    result.residual_gap[e] = hi - lo;
    result.log_good[e] = sum / static_cast<double>(cover.size());
    if (result.residual_gap[e] <= kShardDisagreementTol) {
      ++result.averaged_links;
    } else {
      disputed.push_back(e);
    }
  }

  if (!disputed.empty()) {
    // Group disputed links that share a shard: their equations may overlap,
    // so they must be re-solved jointly. Links in different groups never
    // co-occur in an equation (every equation lives inside one shard).
    std::vector<std::size_t> index_of(link_count, kNone);
    for (std::size_t i = 0; i < disputed.size(); ++i) {
      index_of[disputed[i]] = i;
    }
    DisjointSet groups_uf(disputed.size());
    for (std::size_t s = 0; s < plan.shards.size(); ++s) {
      std::size_t first = kNone;
      for (graph::LinkId e : plan.shards[s].links) {
        if (index_of[e] == kNone) continue;
        if (first == kNone) {
          first = index_of[e];
        } else {
          groups_uf.unite(first, index_of[e]);
        }
      }
    }
    std::vector<std::vector<graph::LinkId>> groups;
    {
      std::vector<std::size_t> group_of_root(disputed.size(), kNone);
      for (std::size_t i = 0; i < disputed.size(); ++i) {
        const std::size_t root = groups_uf.find(i);
        if (group_of_root[root] == kNone) {
          group_of_root[root] = groups.size();
          groups.emplace_back();
        }
        groups[group_of_root[root]].push_back(disputed[i]);
      }
    }

    for (const std::vector<graph::LinkId>& group : groups) {
      // Union subsystem: every harvested equation (from any covering
      // shard) that touches a group link, with the settled links'
      // contributions moved to the right-hand side.
      std::vector<std::size_t> col_of(link_count, kNone);
      for (std::size_t i = 0; i < group.size(); ++i) col_of[group[i]] = i;
      std::vector<std::size_t> involved;
      for (graph::LinkId e : group) {
        involved.insert(involved.end(), plan.shards_of_link[e].begin(),
                        plan.shards_of_link[e].end());
      }
      std::sort(involved.begin(), involved.end());
      involved.erase(std::unique(involved.begin(), involved.end()),
                     involved.end());

      std::vector<std::vector<std::size_t>> supports;
      linalg::SparseSystemView view;
      view.cols = group.size();
      for (std::size_t s : involved) {
        const auto& links = plan.shards[s].links;
        for (const Equation& eq : runs[s].system.equations) {
          std::vector<std::size_t> support;
          double y = eq.y;
          for (graph::LinkId local : eq.links) {
            const graph::LinkId e = links[local];
            if (col_of[e] != kNone) {
              support.push_back(col_of[e]);
            } else {
              y -= result.log_good[e];
            }
          }
          if (support.empty()) continue;
          supports.push_back(std::move(support));
          linalg::SparseRow row;
          row.support_size = supports.back().size();
          row.y = std::min(y, 0.0);
          view.rows.push_back(row);
        }
      }
      // supports is stable now; wire the borrowed pointers.
      for (std::size_t r = 0; r < view.rows.size(); ++r) {
        view.rows[r].support = supports[r].data();
      }

      if (view.rows.empty()) {
        // Nothing left to re-solve against: the averaged estimate stands.
        result.averaged_links += group.size();
        continue;
      }
      linalg::SolverOptions so = options.inference.solver;
      so.warm_start.clear();
      so.nnls_warm_factor = nullptr;
      so.jobs = 1;  // tiny system; keep it inline and deterministic
      const Stopwatch joint_timer;
      const linalg::LogSystemSolution solution =
          linalg::solve_log_system(view, so);
      result.solve_seconds += joint_timer.seconds();
      for (std::size_t i = 0; i < group.size(); ++i) {
        result.log_good[group[i]] = solution.x[i];
      }
      result.resolved_links += group.size();
      ++result.joint_solves;
    }
  }

  result.congestion_prob.resize(link_count);
  for (graph::LinkId e = 0; e < link_count; ++e) {
    result.congestion_prob[e] =
        std::clamp(1.0 - std::exp(result.log_good[e]), 0.0, 1.0);
  }
  return result;
}

}  // namespace tomo::core
