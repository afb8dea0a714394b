// Evaluation scenarios (paper §5): topology + correlation structure +
// ground-truth congestion model for each figure's workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "corr/correlation.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"

namespace tomo::core {

enum class TopologyKind {
  kBrite,           // hierarchical AS+router substitute (Fig. 3-5 "Brite")
  kPlanetLab,       // synthetic traceroute mesh (Fig. 4-5 "PlanetLab")
  kWaxman,          // flat random-geometric mesh (BRITE router-level mode)
  kBarabasiAlbert,  // flat preferential-attachment mesh (BRITE AS-level mode)
};

/// Human-readable name of a topology kind (for descriptors and docs).
const char* to_string(TopologyKind kind);

enum class CorrelationLevel {
  kHigh,   // > 2 congested links per correlation set (Fig. 3 a-c)
  kLoose,  // <= 2 congested links per correlation set (Fig. 3 d)
};

struct ScenarioConfig {
  TopologyKind topology = TopologyKind::kBrite;

  // Scale knobs (defaults give a minutes-long full suite; the benches'
  // --full flag raises them to paper scale).
  std::size_t as_nodes = 60;       // kBrite
  std::size_t as_endpoints = 16;   // kBrite
  std::size_t routers = 150;       // node count for all flat topologies
  std::size_t vantage_points = 14;  // flat topologies
  std::size_t cluster_size = 6;  // max correlation-set size (all topologies)
  /// Probability that a link's bottleneck sits on a shared fabric segment
  /// (higher = more links correlated); must lie in [0,1].
  double fabric_prob = 0.65;

  // Flat-mesh shape knobs: Waxman geometric density (kWaxman) and BA
  // attachment count (kBarabasiAlbert).
  double waxman_alpha = 0.15;
  double waxman_beta = 0.2;
  std::size_t ba_edges_per_node = 2;

  double congested_fraction = 0.10;
  CorrelationLevel level = CorrelationLevel::kHigh;
  double correlation_strength = 0.95;
  double marginal_lo = 0.10;  // congested links draw their true congestion
  double marginal_hi = 0.60;  // probability around a per-set base in range

  /// Mean congestion-episode length in snapshots. > 1 makes every set's
  /// shock bursty (corr::Shock::burst_length: a Gilbert chain with the same
  /// per-snapshot marginal law, so Assumption 3 still holds); 1 keeps the
  /// memoryless common shock.
  double burst_length = 1.0;

  /// Target fraction of congested links made unidentifiable by mutating
  /// the correlation structure around intermediate nodes (Fig. 4).
  double unidentifiable_fraction = 0.0;

  /// Target fraction of congested links secretly correlated by a worm the
  /// declared structure knows nothing about (Fig. 5).
  double mislabeled_fraction = 0.0;
  double worm_rho = 0.5;

  std::uint64_t seed = 1;
};

struct ScenarioInstance {
  graph::Graph graph;
  std::vector<graph::Path> paths;
  corr::CorrelationSets declared_sets;  // what the algorithms are told
  std::unique_ptr<corr::CongestionModel> truth;  // what actually happens
  std::vector<graph::LinkId> congested_links;    // links with p > 0
  std::vector<graph::LinkId> mislabeled_links;   // worm targets
  std::vector<graph::LinkId> unidentifiable_congested;
  std::vector<double> true_marginals;  // truth->marginals(), cached
  std::string description;
};

/// Materializes a scenario. Deterministic in config.seed.
ScenarioInstance build_scenario(const ScenarioConfig& config);

}  // namespace tomo::core
