// sharded-hier10k: one core::infer_sharded trial on hier-10k at
// max_shard_paths = 400 — the internet-scale path. A pass runs the shard
// plan, the per-shard solves and the reconciliation, then scores.
#include <optional>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/run_trials.hpp"
#include "core/scenario_catalog.hpp"
#include "core/sharded_inference.hpp"
#include "corr/identifiability.hpp"
#include "metrics/error_metrics.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

using namespace tomo;

class ShardedHier10k final : public Workload {
 public:
  ShardedHier10k(std::uint64_t seed, Scale scale)
      : seed_(seed), scale_(scale) {
    options_.max_shard_paths = scale.tiny ? 40 : 400;
    options_.jobs = 1;
    options_.seed = core::TrialContext{0, seed}.seed(0x5d);
  }

  void setup(Trace* trace) override {
    coverage_.reset();
    block_.reset();
    const core::TrialContext ctx{0, seed_};
    // The self-test scale swaps in the 2k-AS entry shrunk to suite size.
    core::ScenarioConfig config =
        core::ScenarioCatalog::instance()
            .at(scale_.tiny ? "hier-2k" : "hier-10k")
            .config;
    if (scale_.tiny) config = core::shrink_for_tests(config);
    config.seed = core::TrialContext{0, kTopologySeed}.seed(0x5ce00);
    sim::SimulatorConfig sim;
    sim.snapshots = scale_.tiny ? 256 : 2000;
    sim.packets_per_path = scale_.tiny ? 500 : 4000;
    sim.seed = ctx.seed(0x51000);

    maybe_span(trace, "core.build_scenario_s",
               [&] { instance_ = core::build_scenario(config); });
    maybe_span(trace, "graph.coverage_s",
               [&] { coverage_.emplace(instance_.graph, instance_.paths); });
    maybe_span(trace, "sim.simulate_s", [&] {
      block_.emplace(std::move(
          sim::simulate(instance_.graph, instance_.paths, *instance_.truth, sim)
              .measurement));
    });
  }

  Pass run(Trace* trace) override {
    Pass pass;
    const Clock::time_point start = Clock::now();
    std::optional<core::ShardedInferenceResult> result;
    ++pass.attempted;
    try {
      result.emplace(maybe_span(trace, "core.infer_sharded_s", [&] {
        return core::infer_sharded(instance_.graph, instance_.paths,
                                   *coverage_, instance_.declared_sets,
                                   *block_, options_);
      }));
    } catch (const tomo::Error&) {
      ++pass.failed;
    }
    if (result) {
      pass.mean_err = maybe_span(trace, "metrics.score_s", [&] {
        const sim::EmpiricalMeasurement measurement(*block_);
        return mean_of(metrics::absolute_errors(
            instance_.true_marginals, result->congestion_prob,
            core::potentially_congested_links(instance_.paths, measurement)));
      });
      // Every shard is an operation of its own; a failed shard is a failed
      // operation even though the trial still returns an estimate.
      for (const core::ShardTelemetry& shard : result->shards) {
        ++pass.attempted;
        if (shard.failed) ++pass.failed;
      }
      pass.estimates.push_back(result->congestion_prob);
    }
    pass.wall_s = seconds_since(start);
    pass.window_ms.push_back(1e3 * pass.wall_s);
    pass.snapshots = static_cast<double>(block_->snapshot_count);

    if (trace != nullptr && result) {
      trace->count("core.shards",
                   static_cast<double>(result->plan.shards.size()));
      trace->count("core.shared_links",
                   static_cast<double>(result->plan.shared_links));
      trace->count("core.averaged_links",
                   static_cast<double>(result->averaged_links));
      trace->count("core.resolved_links",
                   static_cast<double>(result->resolved_links));
      trace->count("core.joint_solves",
                   static_cast<double>(result->joint_solves));
      double failed = 0.0;
      for (const core::ShardTelemetry& shard : result->shards) {
        failed += shard.failed ? 1.0 : 0.0;
      }
      trace->count("core.failed_shards", failed);
      // infer_sharded runs the global Assumption-4 refinement and the shard
      // plan before the per-shard solves; re-time both as its children.
      const std::vector<graph::LinkId> refined = trace->span(
          "corr.refine_s",
          [&] {
            return corr::structurally_unidentifiable_links(
                instance_.graph, instance_.paths, instance_.declared_sets);
          },
          "core.infer_sharded_s");
      trace->span(
          "core.plan_shards_s",
          [&] {
            const corr::CorrelationSets sets =
                refined.empty()
                    ? instance_.declared_sets
                    : core::demote_to_singletons(instance_.declared_sets,
                                                 refined);
            return core::plan_shards(instance_.paths, *coverage_, sets,
                                     options_.max_shard_paths);
          },
          "core.infer_sharded_s");
    }
    return pass;
  }

 private:
  std::uint64_t seed_;
  Scale scale_;
  core::ShardedOptions options_;
  core::ScenarioInstance instance_;
  std::optional<graph::CoverageIndex> coverage_;
  std::optional<sim::MeasurementBlock> block_;
};

}  // namespace

std::unique_ptr<Workload> make_sharded_hier10k(std::uint64_t seed,
                                               Scale scale) {
  return std::make_unique<ShardedHier10k>(seed, scale);
}

}  // namespace perfbench
