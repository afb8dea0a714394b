// tomo_cli — command-line front end for libtomo.
//
// Subcommands:
//   gen       generate a synthetic measured system (topology + paths +
//             correlation sets) into a topology file
//   check     identifiability (Assumption 4) report for a topology file
//   simulate  simulate correlated congestion over a topology and write the
//             per-snapshot path observations (plus ground truth)
//   infer     run the correlation algorithm (or the independence baseline)
//             on a topology + observations and print per-link congestion
//             probabilities
//   localize  per-snapshot congested-link localization from observations
//
// Example session:
//   tomo_cli gen --kind planetlab --out topo.txt
//   tomo_cli simulate --topology topo.txt --out obs.txt --truth-out truth.txt
//   tomo_cli infer --topology topo.txt --obs obs.txt
//   tomo_cli localize --topology topo.txt --obs obs.txt --snapshot 17
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>

#include "core/correlation_algorithm.hpp"
#include "core/independence_algorithm.hpp"
#include "core/bootstrap.hpp"
#include "core/localization.hpp"
#include "corr/identifiability.hpp"
#include "corr/model_factory.hpp"
#include "graph/serialize.hpp"
#include "graph/transform.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "stream/obs_stream.hpp"
#include "topogen/hierarchical.hpp"
#include "topogen/planetlab_like.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using namespace tomo;

corr::CorrelationSets sets_of(const graph::MeasuredSystem& system) {
  if (system.partition.empty()) {
    return corr::CorrelationSets::singletons(system.graph.link_count());
  }
  return corr::CorrelationSets(system.graph.link_count(), system.partition);
}

int cmd_gen(int argc, const char* const* argv) {
  Flags flags("tomo_cli gen", "generate a synthetic measured system");
  flags.add_string("kind", "planetlab", "topology kind: brite | planetlab");
  flags.add_string("out", "topology.txt", "output topology file");
  flags.add_int("size", 150, "AS count (brite) or router count (planetlab)");
  flags.add_int("endpoints", 14, "number of vantage points");
  flags.add_int("cluster", 6, "max correlation-set size");
  flags.add_double("fabric-prob", 0.65, "P(link rides a shared fabric)");
  flags.add_int("seed", 1, "RNG seed");
  if (!flags.parse(argc, argv)) return 0;

  graph::MeasuredSystem system;
  std::string description;
  if (flags.get_string("kind") == "brite") {
    topogen::HierarchicalParams params;
    params.as_nodes = flags.get_count("size");
    params.endpoints = flags.get_count("endpoints");
    params.max_corrset_size = flags.get_count("cluster");
    params.fabric_prob = flags.get_double("fabric-prob");
    params.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    auto topo = topogen::generate_hierarchical(params);
    system.graph = std::move(topo.graph);
    system.paths = std::move(topo.paths);
    system.partition = std::move(topo.partition);
    description = topo.description;
  } else if (flags.get_string("kind") == "planetlab") {
    topogen::PlanetLabParams params;
    params.routers = flags.get_count("size");
    params.vantage_points = flags.get_count("endpoints");
    params.cluster_size = flags.get_count("cluster");
    params.fabric_prob = flags.get_double("fabric-prob");
    params.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    auto topo = topogen::generate_planetlab_like(params);
    system.graph = std::move(topo.graph);
    system.paths = std::move(topo.paths);
    system.partition = std::move(topo.partition);
    description = topo.description;
  } else {
    throw Error("unknown --kind (expected brite|planetlab)");
  }
  graph::save_system(flags.get_string("out"), system);
  std::printf("%s\nwrote %s\n", description.c_str(),
              flags.get_string("out").c_str());
  return 0;
}

int cmd_check(int argc, const char* const* argv) {
  Flags flags("tomo_cli check", "Assumption-4 identifiability report");
  flags.add_string("topology", "topology.txt", "topology file");
  flags.add_int("max-set-size", 16, "exact-check enumeration limit");
  if (!flags.parse(argc, argv)) return 0;

  const graph::MeasuredSystem system =
      graph::load_system(flags.get_string("topology"));
  const corr::CorrelationSets sets = sets_of(system);
  const graph::CoverageIndex coverage(system.graph, system.paths);

  const auto nodes = corr::structurally_violating_nodes(
      system.graph, system.paths, sets);
  std::printf("links: %zu  paths: %zu  correlation sets: %zu\n",
              system.graph.link_count(), system.paths.size(),
              sets.set_count());
  std::printf("structural check: %zu violating node(s)\n", nodes.size());
  for (graph::NodeId v : nodes) {
    std::printf("  node %s has all ingress links in one set and all "
                "egress links in one set\n",
                system.graph.node_name(v).c_str());
  }
  bool too_large = false;
  for (std::size_t s = 0; s < sets.set_count(); ++s) {
    too_large |= sets.set(s).size() > flags.get_count("max-set-size");
  }
  if (too_large) {
    std::printf("exact check skipped: a correlation set exceeds "
                "--max-set-size\n");
    return nodes.empty() ? 0 : 1;
  }
  const auto report = corr::check_identifiability(
      coverage, sets, flags.get_count("max-set-size"));
  if (report.holds) {
    std::printf("exact check: Assumption 4 HOLDS — every correlation "
                "subset covers a distinct path set\n");
    return 0;
  }
  std::printf("exact check: Assumption 4 VIOLATED — %zu colliding subset "
              "pair(s), %zu unidentifiable link(s)\n",
              report.collisions.size(),
              report.unidentifiable_links.size());
  return 1;
}

int cmd_simulate(int argc, const char* const* argv) {
  Flags flags("tomo_cli simulate",
              "simulate correlated congestion and record observations");
  flags.add_string("topology", "topology.txt", "topology file");
  flags.add_string("out", "observations.txt", "output observation file");
  flags.add_string("truth-out", "", "optional ground-truth marginals file");
  flags.add_int("snapshots", 2000, "number of snapshots");
  flags.add_int("packets", 2000, "probe packets per path per snapshot");
  flags.add_double("congested-fraction", 0.1, "fraction of congested links");
  flags.add_double("strength", 0.95, "correlation strength in [0,1)");
  flags.add_int("seed", 1, "RNG seed");
  flags.add_int("jobs", 1,
                "simulation worker threads (0 = all cores); output is "
                "identical for any value");
  if (!flags.parse(argc, argv)) return 0;
  // NaN fails both comparisons, so it is rejected too.
  const double congested_fraction = flags.get_double("congested-fraction");
  TOMO_REQUIRE(congested_fraction >= 0.0 && congested_fraction <= 1.0,
               "--congested-fraction must be in [0,1]");

  const graph::MeasuredSystem system =
      graph::load_system(flags.get_string("topology"));
  const corr::CorrelationSets sets = sets_of(system);

  // Ground truth: clustered congestion over the declared sets (at least
  // one congested link, also for a fraction of 0).
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  const std::size_t target = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             congested_fraction *
             static_cast<double>(system.graph.link_count())));
  std::vector<graph::LinkId> congested;
  for (std::size_t idx : rng.sample_without_replacement(
           system.graph.link_count(), target)) {
    congested.push_back(idx);
  }
  std::sort(congested.begin(), congested.end());
  std::vector<double> marginals(congested.size());
  for (double& m : marginals) m = rng.uniform(0.1, 0.6);
  auto truth = corr::make_clustered_shock_model(
      sets, congested, marginals, flags.get_double("strength"));

  sim::SimulatorConfig config;
  config.snapshots = flags.get_count("snapshots");
  config.packets_per_path = flags.get_count("packets");
  config.jobs = flags.get_count("jobs");
  config.seed = rng();
  const auto result =
      sim::simulate(system.graph, system.paths, *truth, config);
  stream::save_observations(flags.get_string("out"), result.measurement);
  std::printf("simulated %zu snapshots over %zu paths -> %s\n",
              config.snapshots, system.paths.size(),
              flags.get_string("out").c_str());
  if (!flags.get_string("truth-out").empty()) {
    std::ofstream os(flags.get_string("truth-out"));
    TOMO_REQUIRE(os.good(), "cannot open truth output file");
    for (graph::LinkId e = 0; e < system.graph.link_count(); ++e) {
      os << e << ' ' << truth->marginal(e) << '\n';
    }
    std::printf("ground truth -> %s\n",
                flags.get_string("truth-out").c_str());
  }
  return 0;
}

int cmd_infer(int argc, const char* const* argv) {
  Flags flags("tomo_cli infer",
              "infer per-link congestion probabilities");
  flags.add_string("topology", "topology.txt", "topology file");
  flags.add_string("obs", "observations.txt", "observation file");
  flags.add_string("solver", "nnls", "ls | nnls | l1lp | irls");
  flags.add_bool("independent", false,
                 "run the independence baseline instead");
  flags.add_int("bootstrap", 0,
                "replicates for 90% confidence intervals (0 = off)");
  flags.add_int("bootstrap-jobs", 1,
                "worker threads for bootstrap replicates (0 = all cores); "
                "intervals are bit-identical for any value");
  flags.add_bool("csv", false, "CSV output");
  if (!flags.parse(argc, argv)) return 0;

  const graph::MeasuredSystem system =
      graph::load_system(flags.get_string("topology"));
  const corr::CorrelationSets sets = sets_of(system);
  const sim::EmpiricalMeasurement measurement(
      stream::load_trace(flags.get_string("obs"), system.paths.size()));
  TOMO_REQUIRE(measurement.path_count() == system.paths.size(),
               "observation file path count does not match the topology");
  const graph::CoverageIndex coverage(system.graph, system.paths);

  core::InferenceOptions options;
  options.solver.kind = linalg::solver_kind_from_string(
      flags.get_string("solver"));
  const core::InferenceResult result =
      flags.get_bool("independent")
          ? core::infer_congestion_independent(system.graph, system.paths,
                                               coverage, measurement,
                                               options)
          : core::infer_congestion(system.graph, system.paths, coverage,
                                   sets, measurement, options);

  std::vector<double> lower, upper;
  const std::size_t replicates = flags.get_count("bootstrap");
  if (replicates > 0 && !flags.get_bool("independent")) {
    core::BootstrapOptions boot;
    boot.replicates = replicates;
    boot.jobs = flags.get_count("bootstrap-jobs");
    boot.inference = options;
    const core::BootstrapResult intervals = core::bootstrap_congestion(
        system.graph, system.paths, coverage, sets, measurement.block(),
        boot);
    lower = intervals.lower;
    upper = intervals.upper;
  }

  const bool with_intervals = !lower.empty();
  Table table(with_intervals
                  ? std::vector<std::string>{"link", "src", "dst",
                                             "congestion_prob", "ci90_lo",
                                             "ci90_hi"}
                  : std::vector<std::string>{"link", "src", "dst",
                                             "congestion_prob"});
  for (graph::LinkId e = 0; e < system.graph.link_count(); ++e) {
    std::vector<std::string> row{
        std::to_string(e),
        system.graph.node_name(system.graph.link(e).src),
        system.graph.node_name(system.graph.link(e).dst),
        Table::fmt(result.congestion_prob[e])};
    if (with_intervals) {
      row.push_back(Table::fmt(lower[e]));
      row.push_back(Table::fmt(upper[e]));
    }
    table.add_row(std::move(row));
  }
  if (flags.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print_text(std::cout);
    std::printf("equations: %zu singles + %zu pairs, rank %zu/%zu (%s)\n",
                result.system.n1, result.system.n2, result.system.rank,
                result.system.link_count, result.solver_detail.c_str());
  }
  return 0;
}

int cmd_merge(int argc, const char* const* argv) {
  Flags flags("tomo_cli merge",
              "apply the §3.3 merge transformation and write the result");
  flags.add_string("topology", "topology.txt", "topology file");
  flags.add_string("out", "merged.txt", "output topology file");
  if (!flags.parse(argc, argv)) return 0;

  const graph::MeasuredSystem system =
      graph::load_system(flags.get_string("topology"));
  const corr::CorrelationSets sets = sets_of(system);
  const graph::MergeResult merged = graph::merge_indistinguishable(
      system.graph, system.paths, sets.partition());
  std::printf("merge: %zu round(s); %zu -> %zu links, %zu -> %zu "
              "correlation sets\n",
              merged.merge_rounds, system.graph.link_count(),
              merged.graph.link_count(), sets.set_count(),
              merged.partition.size());
  for (graph::LinkId m = 0; m < merged.graph.link_count(); ++m) {
    if (merged.composition[m].size() > 1) {
      std::printf("  merged link %zu <- originals:", m);
      for (graph::LinkId original : merged.composition[m]) {
        std::printf(" %zu", original);
      }
      std::printf("\n");
    }
  }
  graph::MeasuredSystem out{merged.graph, merged.paths, merged.partition};
  graph::save_system(flags.get_string("out"), out);
  std::printf("wrote %s\n", flags.get_string("out").c_str());
  return 0;
}

int cmd_localize(int argc, const char* const* argv) {
  Flags flags("tomo_cli localize",
              "localize the congested links of one snapshot");
  flags.add_string("topology", "topology.txt", "topology file");
  flags.add_string("obs", "observations.txt", "observation file");
  flags.add_int("snapshot", 0, "snapshot index to localize");
  if (!flags.parse(argc, argv)) return 0;

  const graph::MeasuredSystem system =
      graph::load_system(flags.get_string("topology"));
  const corr::CorrelationSets sets = sets_of(system);
  const sim::EmpiricalMeasurement measurement(
      stream::load_trace(flags.get_string("obs"), system.paths.size()));
  TOMO_REQUIRE(measurement.path_count() == system.paths.size(),
               "observation file path count does not match the topology");
  const std::size_t snapshot = flags.get_count("snapshot");
  TOMO_REQUIRE(snapshot < measurement.sample_count(),
               "snapshot out of range");

  const graph::CoverageIndex coverage(system.graph, system.paths);
  const core::InferenceResult probs = core::infer_congestion(
      system.graph, system.paths, coverage, sets, measurement);

  const sim::MeasurementBlock& block = measurement.block();
  graph::PathIdSet congested;
  for (graph::PathId p = 0; p < block.path_count; ++p) {
    if (!((block.good_row(p)[snapshot / 64] >> (snapshot % 64)) & 1)) {
      congested.push_back(p);
    }
  }
  std::printf("snapshot %zu: %zu congested path(s)\n", snapshot,
              congested.size());
  const core::LocalizationResult result = core::localize_greedy_map(
      coverage, congested, probs.congestion_prob);
  if (!result.feasible) {
    std::printf("observation is infeasible under Assumption 2 "
                "(measurement noise?)\n");
    return 1;
  }
  for (graph::LinkId e : result.congested_links) {
    std::printf("  link %zu  %s -> %s   (P_congested = %.3f)\n", e,
                system.graph.node_name(system.graph.link(e).src).c_str(),
                system.graph.node_name(system.graph.link(e).dst).c_str(),
                probs.congestion_prob[e]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: tomo_cli <gen|check|simulate|infer|merge|localize> [flags]\n"
      "       tomo_cli <subcommand> --help\n";
  if (argc < 2) {
    std::fputs(usage, stderr);
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    // Shift argv so each subcommand parses its own flags.
    if (cmd == "gen") return cmd_gen(argc - 1, argv + 1);
    if (cmd == "check") return cmd_check(argc - 1, argv + 1);
    if (cmd == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (cmd == "infer") return cmd_infer(argc - 1, argv + 1);
    if (cmd == "merge") return cmd_merge(argc - 1, argv + 1);
    if (cmd == "localize") return cmd_localize(argc - 1, argv + 1);
    std::fputs(usage, stderr);
    return 2;
  } catch (const tomo::Error& e) {
    std::fprintf(stderr, "tomo_cli: %s\n", e.message().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tomo_cli: %s\n", e.what());
    return 1;
  }
}
