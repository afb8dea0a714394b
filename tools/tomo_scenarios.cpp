// Scenario registry front-end: lists every named scenario and runs any of
// them end to end (build topology → simulate → correlation + independence
// algorithms → error summary), on the same shared flags as the bench
// binaries. `--list` is the default; `--scenario <name>` runs one entry,
// `--all` runs the whole catalog. Stdout is byte-identical for any --jobs.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/sharded_inference.hpp"
#include "metrics/error_metrics.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace tomo;

std::string special_knobs(const core::ScenarioConfig& c) {
  std::string out;
  const auto append = [&out](const std::string& part) {
    out += out.empty() ? part : " " + part;
  };
  if (c.burst_length > 1.0) {
    append("burst=" + Table::fmt(c.burst_length, 0));
  }
  if (c.unidentifiable_fraction > 0.0) {
    append("unident=" + Table::fmt(100.0 * c.unidentifiable_fraction, 0) +
           "%");
  }
  if (c.mislabeled_fraction > 0.0) {
    append("worm=" + Table::fmt(100.0 * c.mislabeled_fraction, 0) + "%");
  }
  return out.empty() ? "-" : out;
}

void list_catalog(bench::Run& run) {
  Table table({"scenario", "topology", "correlation", "vps", "cluster",
               "special", "descends_from"});
  for (const core::CatalogEntry& entry :
       core::ScenarioCatalog::instance().entries()) {
    const core::ScenarioConfig& c = entry.config;
    const bool brite = c.topology == core::TopologyKind::kBrite;
    table.add_row({entry.name, core::to_string(c.topology),
                   c.level == core::CorrelationLevel::kHigh ? "high"
                                                            : "loose",
                   std::to_string(brite ? c.as_endpoints : c.vantage_points),
                   std::to_string(c.cluster_size), special_knobs(c),
                   entry.figure});
  }
  std::cout << "# Scenario registry — "
            << core::ScenarioCatalog::instance().entries().size()
            << " scenarios (docs/SCENARIOS.md has the full catalogue)\n";
  run.table("scenario registry", table);
}

struct ScenarioScore {
  std::size_t links = 0, paths = 0, sets = 0;
  double corr_mean = 0.0, corr_p90 = 0.0;
  double ind_mean = 0.0, ind_p90 = 0.0;
  /// Equation-harvest wall seconds (final correlation build + independence
  /// build); recorded in the JSON telemetry only — never on stdout.
  double harvest_seconds = 0.0;
  /// Solver wall seconds (correlation + independence solves) and the
  /// per-algorithm solver detail strings (engine, iterations, refactorize
  /// count); JSON telemetry only.
  double solve_seconds = 0.0;
  /// Snapshot-simulation wall seconds; JSON telemetry only.
  double sim_seconds = 0.0;
  std::string corr_detail, ind_detail;
};

/// One catalog entry, end to end: --trials experiments across --jobs
/// workers, reduced in trial order.
ScenarioScore run_entry(bench::Run& run, const core::CatalogEntry& entry,
                        std::uint64_t tag) {
  const bench::Settings& s = run.settings();
  const core::TrialSpec spec = bench::resolve_trial_spec(s, entry, tag);
  const auto outcomes = run.trials([&](const core::TrialContext& ctx) {
    const auto inst = core::build_scenario(spec.scenario_for(ctx));
    const auto result = core::run_experiment(inst, spec.experiment_for(ctx));
    ScenarioScore score;
    score.links = inst.graph.link_count();
    score.paths = inst.paths.size();
    score.sets = inst.declared_sets.set_count();
    score.corr_mean = mean(result.correlation_errors());
    score.corr_p90 = percentile(result.correlation_errors(), 90.0);
    score.ind_mean = mean(result.independence_errors());
    score.ind_p90 = percentile(result.independence_errors(), 90.0);
    score.harvest_seconds = result.correlation.system.build_seconds +
                            result.independence.system.build_seconds;
    score.solve_seconds =
        result.correlation.solve_seconds + result.independence.solve_seconds;
    score.sim_seconds = result.sim_seconds;
    score.corr_detail = result.correlation.solver_detail;
    score.ind_detail = result.independence.solver_detail;
    return score;
  });
  ScenarioScore total;
  if (outcomes.empty()) return total;  // --trials 0
  // Instance shape from trial 0 (each trial reseeds the topology, so
  // counts vary slightly across trials); errors averaged over all trials.
  total.links = outcomes.front().value.links;
  total.paths = outcomes.front().value.paths;
  total.sets = outcomes.front().value.sets;
  const double trials = static_cast<double>(outcomes.size());
  util::Json details = util::Json::array();
  for (const auto& outcome : outcomes) {
    total.corr_mean += outcome.value.corr_mean / trials;
    total.corr_p90 += outcome.value.corr_p90 / trials;
    total.ind_mean += outcome.value.ind_mean / trials;
    total.ind_p90 += outcome.value.ind_p90 / trials;
    total.harvest_seconds += outcome.value.harvest_seconds / trials;
    total.solve_seconds += outcome.value.solve_seconds / trials;
    total.sim_seconds += outcome.value.sim_seconds / trials;
    details.push(util::Json::object()
                     .set("correlation", outcome.value.corr_detail)
                     .set("independence", outcome.value.ind_detail));
  }
  run.metric(entry.name + "_correlation_mean_err", total.corr_mean);
  run.metric(entry.name + "_independence_mean_err", total.ind_mean);
  run.metric(entry.name + "_harvest_seconds", total.harvest_seconds);
  run.metric(entry.name + "_solve_seconds", total.solve_seconds);
  run.metric(entry.name + "_sim_seconds", total.sim_seconds);
  run.annotation(entry.name + "_solver_detail", std::move(details));
  return total;
}

struct ShardedScore {
  std::size_t links = 0, paths = 0, sets = 0;
  std::size_t shards = 0, shared_links = 0;
  std::size_t averaged = 0, resolved = 0, joint_solves = 0, failed = 0;
  double mean_err = 0.0, p90_err = 0.0;
  /// Wall seconds (simulation / per-shard + joint solves); JSON-only.
  double sim_seconds = 0.0, solve_seconds = 0.0;
};

/// One catalog entry through the sharded pipeline (build → simulate →
/// infer_sharded → error summary vs ground truth). Same trial/seed
/// convention as run_entry, so the topology and observations of trial t
/// match the monolithic run's trial t exactly.
ShardedScore run_sharded_entry(bench::Run& run,
                               const core::CatalogEntry& entry,
                               std::uint64_t tag,
                               std::size_t max_shard_paths) {
  const bench::Settings& s = run.settings();
  const core::TrialSpec spec = bench::resolve_trial_spec(s, entry, tag);
  const auto outcomes = run.trials([&](const core::TrialContext& ctx) {
    const auto inst = core::build_scenario(spec.scenario_for(ctx));
    const core::ExperimentConfig config = spec.experiment_for(ctx);
    const graph::CoverageIndex coverage(inst.graph, inst.paths);

    const Stopwatch sim_timer;
    sim::SimulationResult sim_result =
        sim::simulate(inst.graph, inst.paths, *inst.truth, config.sim);
    const sim::MeasurementBlock block = std::move(sim_result.measurement);

    ShardedScore score;
    score.sim_seconds = sim_timer.seconds();
    score.links = inst.graph.link_count();
    score.paths = inst.paths.size();
    score.sets = inst.declared_sets.set_count();

    core::ShardedOptions options;
    options.max_shard_paths = max_shard_paths;
    // Mirrors apply_trial_settings: with one trial the trial pool idles,
    // so --jobs fans the shards instead (bit-identical either way).
    options.jobs = s.trials == 1 ? s.jobs : 1;
    options.inference = config.inference;
    const core::ShardedInferenceResult result = core::infer_sharded(
        inst.graph, inst.paths, coverage, inst.declared_sets, block, options);

    score.shards = result.plan.shards.size();
    score.shared_links = result.plan.shared_links;
    score.averaged = result.averaged_links;
    score.resolved = result.resolved_links;
    score.joint_solves = result.joint_solves;
    for (const core::ShardTelemetry& shard : result.shards) {
      score.failed += shard.failed ? 1 : 0;
    }
    score.solve_seconds = result.solve_seconds;

    const sim::EmpiricalMeasurement measurement(block);
    const std::vector<double> errors = metrics::absolute_errors(
        inst.true_marginals, result.congestion_prob,
        core::potentially_congested_links(inst.paths, measurement));
    score.mean_err = mean(errors);
    score.p90_err = percentile(errors, 90.0);
    return score;
  });
  ShardedScore total;
  if (outcomes.empty()) return total;  // --trials 0
  // Shape and shard structure from trial 0, errors/timings averaged.
  total = outcomes.front().value;
  total.mean_err = total.p90_err = 0.0;
  total.sim_seconds = total.solve_seconds = 0.0;
  const double trials = static_cast<double>(outcomes.size());
  util::Json shard_details = util::Json::array();
  for (const auto& outcome : outcomes) {
    total.mean_err += outcome.value.mean_err / trials;
    total.p90_err += outcome.value.p90_err / trials;
    total.sim_seconds += outcome.value.sim_seconds / trials;
    total.solve_seconds += outcome.value.solve_seconds / trials;
  }
  run.metric(entry.name + "_sharded_mean_err", total.mean_err);
  run.metric(entry.name + "_sharded_solve_seconds", total.solve_seconds);
  run.metric(entry.name + "_sharded_sim_seconds", total.sim_seconds);
  run.annotation(
      entry.name + "_sharded_plan",
      util::Json::object()
          .set("max_shard_paths", max_shard_paths)
          .set("shards", total.shards)
          .set("shared_links", total.shared_links)
          .set("averaged_links", total.averaged)
          .set("resolved_links", total.resolved)
          .set("joint_solves", total.joint_solves)
          .set("failed_shards", total.failed));
  return total;
}

int run_scenarios(int argc, char** argv) {
  Flags flags("tomo_scenarios",
              "list or run the named scenarios of the registry");
  bench::add_common_flags(flags);
  flags.add_bool("list", false,
                 "print the catalogue and exit (default with no --scenario)");
  flags.add_bool("all", false, "run every registry scenario");
  flags.add_bool("sharded", false,
                 "run through core::infer_sharded (vantage-cluster shards "
                 "+ reconciliation) instead of the monolithic pipeline");
  flags.add_int("max-shard-paths", 400,
                "--sharded: target paths per shard (0 = unbounded "
                "link-disjoint components)");
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("tomo_scenarios", s);

  const bool run_all = flags.get_bool("all");
  TOMO_REQUIRE(!(run_all && !s.scenario.empty()),
               "--all and --scenario are mutually exclusive");
  if (flags.get_bool("list") || (s.scenario.empty() && !run_all)) {
    list_catalog(run);
    run.finish();
    return 0;
  }

  std::vector<const core::CatalogEntry*> selected;
  if (run_all) {
    for (const auto& entry : core::ScenarioCatalog::instance().entries()) {
      selected.push_back(&entry);
    }
  } else {
    selected.push_back(&core::ScenarioCatalog::instance().at(s.scenario));
  }

  if (flags.get_bool("sharded")) {
    const std::size_t max_shard_paths = flags.get_count("max-shard-paths");
    Table table({"scenario", "links", "paths", "shards", "shared_links",
                 "averaged", "resolved", "sharded_mean_err",
                 "sharded_p90_err"});
    std::cout << "# Sharded scenario runs — " << s.trials << " trial(s) x "
              << s.snapshots << " snapshots x " << s.packets
              << " packets/path, max " << max_shard_paths
              << " paths/shard\n";
    for (const core::CatalogEntry* entry : selected) {
      const std::uint64_t index = static_cast<std::uint64_t>(
          entry - core::ScenarioCatalog::instance().entries().data());
      const ShardedScore score = run_sharded_entry(
          run, *entry, 0x5ce00 + index * 0x100, max_shard_paths);
      table.add_row({entry->name, std::to_string(score.links),
                     std::to_string(score.paths),
                     std::to_string(score.shards),
                     std::to_string(score.shared_links),
                     std::to_string(score.averaged),
                     std::to_string(score.resolved),
                     Table::fmt(score.mean_err), Table::fmt(score.p90_err)});
    }
    run.table("sharded scenario scores", table);
    run.finish();
    return 0;
  }

  Table table({"scenario", "links", "paths", "sets", "correlation_mean_err",
               "correlation_p90_err", "independence_mean_err",
               "independence_p90_err"});
  std::cout << "# Scenario runs — " << s.trials << " trial(s) x "
            << s.snapshots << " snapshots x " << s.packets
            << " packets/path\n";
  for (const core::CatalogEntry* entry : selected) {
    // Seed tag from the registry index so a single-scenario run and the
    // same scenario inside --all see identical trials.
    const std::uint64_t index = static_cast<std::uint64_t>(
        entry - core::ScenarioCatalog::instance().entries().data());
    const ScenarioScore score =
        run_entry(run, *entry, 0x5ce00 + index * 0x100);
    table.add_row({entry->name, std::to_string(score.links),
                   std::to_string(score.paths), std::to_string(score.sets),
                   Table::fmt(score.corr_mean), Table::fmt(score.corr_p90),
                   Table::fmt(score.ind_mean), Table::fmt(score.ind_p90)});
  }
  run.table("scenario scores", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_scenarios(argc, argv);
  } catch (const tomo::Error& e) {
    std::fprintf(stderr, "tomo_scenarios: %s\n", e.message().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tomo_scenarios: %s\n", e.what());
    return 1;
  }
}
