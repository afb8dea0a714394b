// Sharded inference: internet-scale tomography by partitioning the path
// mesh (the ROADMAP's "Internet-scale topologies via sharded inference").
//
// Sharding pays in wall time. The monolithic solve's cost is its NNLS
// passive-set factor, whose triangular solves grow with the number of
// passive columns; at 10k routers that is one factor over thousands of
// links. In coverage terms the system is almost block-diagonal — distinct
// vantage clusters rarely share links — so it splits into many small
// systems whose passive sets stay small. This module exploits exactly that
// structure, in one pipeline for every plan (a one-shard plan included):
//
//   1. plan_shards partitions the paths by vantage-point cluster (all
//      paths sharing a source node), merges clusters that share a link or
//      a correlation set into link-disjoint components (a zero-cut
//      partition of the path-link incidence), and — when a component
//      exceeds the configured shard size — splits it back into clusters
//      packed greedily by link overlap, a greedy min-cut that keeps the
//      number of cross-shard (shared) links small. Each cluster's sorted
//      link list is built once per plan; every overlap score reads it.
//   2. infer_sharded hoists the Assumption-4 structural refinement to the
//      full system (the node-local criterion consults a node's complete
//      ingress/egress lists, so running it on a link-restricted shard
//      subgraph would flag nodes the monolithic run does not), then runs
//      the existing harvest→demote→NNLS pipeline per shard on re-indexed
//      local subsystems, fanned across parallel_for workers. A shard
//      builds its Gram inline, so the fan-out runs at most `jobs` threads.
//      Each shard writes only its own slot, so the result is bit-identical
//      for any `jobs`.
//   3. Links covered by several shards are reconciled by one rule: shards
//      that agree within kShardDisagreementTol take the plain log-space
//      mean; shards that disagree fall back to a joint re-solve of the
//      union subsystem — every harvested equation touching a disputed
//      link, with the settled links' contributions substituted into the
//      right-hand side. Per-link provenance (shard_of / reconciled /
//      residual_gap) is recorded.
//
// Exactness contract: pair-equation candidates always share a link, so a
// link-disjoint shard contains precisely the monolithic harvest's
// equations that live inside it. When the pair budget does not bind
// (every usable correlation-free candidate is then accepted, making
// acceptance order-independent), an uncapped plan therefore reproduces the
// monolithic solution up to Gram-summation rounding, and a one-shard plan
// reproduces it bit for bit — the differential suite (test_sharded_fast)
// pins both across the registry.
#pragma once

#include <cstdint>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "graph/coverage.hpp"
#include "sim/measurement_block.hpp"

namespace tomo::core {

/// Largest |Δ log P(link good)| between two shards' estimates of a shared
/// link that still counts as agreement; past it the link joins a joint
/// re-solve instead of being averaged.
inline constexpr double kShardDisagreementTol = 1e-6;

struct ShardedOptions {
  /// Upper bound on paths per shard. 0 = unbounded: shards are exactly the
  /// link-disjoint components (no shared links, reconciliation idle) —
  /// the configuration the differential suite compares against the
  /// monolithic pipeline. Positive values split oversized components and
  /// accept shared links in exchange for smaller per-shard systems.
  std::size_t max_shard_paths = 0;
  /// Shard fan-out width (1 = inline on the caller, 0 = all hardware
  /// cores). The result is bit-identical for any value.
  std::size_t jobs = 1;
  /// Inert: nothing in the sharded pipeline reads it. Kept only because
  /// the benchmark runner still assigns it; it goes with the next change
  /// to the benchmark.
  std::uint64_t seed = 1;
  InferenceOptions inference;
};

/// One shard of the plan: a subset of the paths plus every link they
/// traverse, both sorted ascending by global id.
struct Shard {
  std::vector<graph::PathId> paths;
  std::vector<graph::LinkId> links;
};

struct ShardPlan {
  std::vector<Shard> shards;  // paths partitioned, links possibly shared
  /// Global link -> indices of the shards covering it (ascending).
  std::vector<std::vector<std::size_t>> shards_of_link;
  std::size_t shared_links = 0;  // links covered by more than one shard
};

/// Partitions the measured system. `sets` should be the correlation
/// structure the per-shard harvest will run under (refined, if refinement
/// is enabled): clusters sharing a correlation set are merged so no set
/// ever straddles a component boundary.
ShardPlan plan_shards(const std::vector<graph::Path>& paths,
                      const graph::CoverageIndex& coverage,
                      const corr::CorrelationSets& sets,
                      std::size_t max_shard_paths);

/// Per-shard telemetry surfaced on the result (and by tomo_scenarios
/// --sharded as JSON annotations).
struct ShardTelemetry {
  std::size_t paths = 0;
  std::size_t links = 0;
  std::size_t equations = 0;
  /// Links the shard's demotion round listed as uncovered (see
  /// RefinedHarvest::refined_links; some may already have been alone).
  std::size_t refined_links = 0;
  double solve_seconds = 0.0;
  /// The shard admits no usable equation: its links fall back to
  /// log_good = 0 (exactly what the monolithic solver leaves for
  /// unconstrained columns).
  bool failed = false;
};

struct ShardedInferenceResult {
  std::vector<double> congestion_prob;  // P(X_k = 1) per global link
  std::vector<double> log_good;         // log P(X_k = 0) per global link
  ShardPlan plan;
  /// Links demoted to singletons by the hoisted global refinement.
  std::vector<graph::LinkId> refined_links;
  /// Per link: the first shard covering it (its owner for provenance).
  std::vector<std::size_t> shard_of;
  /// Per link: 1 iff more than one shard contributed an estimate.
  std::vector<std::uint8_t> reconciled;
  /// Per link: max spread between shard estimates of log P(good) before
  /// the merge (0 for links owned by a single shard).
  std::vector<double> residual_gap;
  std::size_t averaged_links = 0;  // shared links settled by averaging
  std::size_t resolved_links = 0;  // shared links settled by joint re-solve
  std::size_t joint_solves = 0;    // joint subsystems solved
  double solve_seconds = 0.0;      // summed over shards + joint re-solves
  std::vector<ShardTelemetry> shards;
};

/// The sharded pipeline: plan → per-shard inference → reconcile, for every
/// plan. A one-shard plan returns infer_congestion's estimates bit for bit.
ShardedInferenceResult infer_sharded(const graph::Graph& g,
                                     const std::vector<graph::Path>& paths,
                                     const graph::CoverageIndex& coverage,
                                     const corr::CorrelationSets& sets,
                                     const sim::MeasurementBlock& block,
                                     const ShardedOptions& options = {});

}  // namespace tomo::core
