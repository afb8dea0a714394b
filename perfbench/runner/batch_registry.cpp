// batch-registry: one monolithic trial of every registry entry except
// hier-10k — the paper-reproduction loop over every topology and
// correlation family. Setup builds, indexes and simulates each entry; a
// pass runs the correlation algorithm, the independence baseline and the
// scoring on all of them.
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "core/experiment.hpp"
#include "core/independence_algorithm.hpp"
#include "core/run_trials.hpp"
#include "core/scenario_catalog.hpp"
#include "corr/identifiability.hpp"
#include "metrics/error_metrics.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

using namespace tomo;

struct Entry {
  core::ScenarioInstance instance;
  std::optional<graph::CoverageIndex> coverage;
  std::optional<sim::EmpiricalMeasurement> measurement;
};

class BatchRegistry final : public Workload {
 public:
  BatchRegistry(std::uint64_t seed, Scale scale)
      : seed_(seed), scale_(scale) {
    sim_.snapshots = scale.tiny ? 256 : 2000;
    sim_.packets_per_path = scale.tiny ? 500 : 4000;
  }

  void setup(Trace* trace) override {
    entries_.clear();
    const auto& catalog = core::ScenarioCatalog::instance().entries();
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      if (catalog[i].name == "hier-10k") continue;
      // tomo_scenarios' per-entry tags: at kTopologySeed these are the
      // topologies trial 0 of `tomo_scenarios --all --seed 1` builds.
      const core::TrialContext ctx{0, seed_};
      core::ScenarioConfig config = catalog[i].config;
      if (scale_.tiny) config = core::shrink_for_tests(config);
      config.seed =
          core::TrialContext{0, kTopologySeed}.seed(0x5ce00 + i * 0x100);
      sim::SimulatorConfig sim = sim_;
      sim.seed = ctx.seed(0x51000);

      Entry& entry = entries_.emplace_back();
      maybe_span(trace, "core.build_scenario_s",
                 [&] { entry.instance = core::build_scenario(config); });
      maybe_span(trace, "graph.coverage_s", [&] {
        entry.coverage.emplace(entry.instance.graph, entry.instance.paths);
      });
      maybe_span(trace, "sim.simulate_s", [&] {
        sim::SimulationResult result =
            sim::simulate(entry.instance.graph, entry.instance.paths,
                          *entry.instance.truth, sim);
        entry.measurement.emplace(std::move(result.measurement));
      });
    }
  }

  Pass run(Trace* trace) override {
    Pass pass;
    const Clock::time_point start = Clock::now();
    for (const Entry& entry : entries_) {
      const Clock::time_point trial_start = Clock::now();
      ++pass.attempted;
      try {
        std::vector<double> correlation, independence;
        if (trace == nullptr) {
          correlation = core::infer_congestion(
                            entry.instance.graph, entry.instance.paths,
                            *entry.coverage, entry.instance.declared_sets,
                            *entry.measurement, options_)
                            .congestion_prob;
          independence = core::infer_congestion_independent(
                             entry.instance.graph, entry.instance.paths,
                             *entry.coverage, *entry.measurement, options_)
                             .congestion_prob;
        } else {
          correlation = traced_inference(*trace, entry, false);
          independence = traced_inference(*trace, entry, true);
        }
        const double err = maybe_span(trace, "metrics.score_s", [&] {
          const std::vector<std::size_t> population =
              core::potentially_congested_links(entry.instance.paths,
                                                *entry.measurement);
          return mean_of(metrics::absolute_errors(
              entry.instance.true_marginals, correlation, population));
        });
        pass.mean_err += err;
        pass.estimates.push_back(std::move(correlation));
        pass.estimates.push_back(std::move(independence));
      } catch (const tomo::Error&) {
        ++pass.failed;
        pass.estimates.emplace_back();
        pass.estimates.emplace_back();
      }
      pass.window_ms.push_back(1e3 * seconds_since(trial_start));
      pass.snapshots += static_cast<double>(sim_.snapshots);
    }
    pass.wall_s = seconds_since(start);
    const std::size_t scored = pass.attempted - pass.failed;
    if (scored > 0) pass.mean_err /= static_cast<double>(scored);
    if (trace != nullptr) {
      // The Assumption-4 refinement runs inside the correlation harvest;
      // re-time it on the same inputs as the harvest's child span.
      for (const Entry& entry : entries_) {
        trace->span(
            "corr.refine_s",
            [&] {
              return corr::structurally_unidentifiable_links(
                  entry.instance.graph, entry.instance.paths,
                  entry.instance.declared_sets);
            },
            "core.harvest_s");
      }
    }
    return pass;
  }

 private:
  /// infer_congestion (or, with `baseline`, infer_congestion_independent)
  /// decomposed into its harvest and solve calls, each a span.
  std::vector<double> traced_inference(Trace& trace, const Entry& entry,
                                       bool baseline) const {
    const core::ScenarioInstance& inst = entry.instance;
    core::InferenceOptions options = options_;
    corr::CorrelationSets singletons;
    const corr::CorrelationSets* sets = &inst.declared_sets;
    if (baseline) {
      singletons =
          corr::CorrelationSets::singletons(entry.coverage->link_count());
      sets = &singletons;
      options.refine_unidentifiable = false;
    }
    core::RefinedHarvest harvest = trace.span(
        baseline ? "core.baseline_harvest_s" : "core.harvest_s", [&] {
          return core::harvest_refined_system(inst.graph, inst.paths,
                                              *entry.coverage, *sets,
                                              *entry.measurement, options);
        });
    TOMO_REQUIRE(!harvest.system.equations.empty(),
                 "no usable equations: the measurements never observed a "
                 "usable good path");
    if (!baseline) {
      const core::EquationSystem& system = harvest.system;
      trace.count("core.equations",
                  static_cast<double>(system.equations.size()));
      trace.count("core.pair_candidates",
                  static_cast<double>(system.pair_candidates_tried));
      trace.count("core.pairs_accepted", static_cast<double>(system.n2));
      trace.count("core.demoted_links",
                  static_cast<double>(harvest.refined_links.size()));
    }
    linalg::LogSystemSolution solution = trace.span(
        baseline ? "linalg.baseline_solve_s" : "linalg.solve_s", [&] {
          return linalg::solve_log_system(core::sparse_view(harvest.system),
                                          options.solver);
        });
    count_solver_detail(trace, solution.detail);
    const double cols = static_cast<double>(harvest.system.link_count);
    trace.count("linalg.gram_mb_computed", cols * cols * 8.0 / 1e6);
    core::InferenceResult result;
    core::apply_solution(result, std::move(solution));
    return std::move(result.congestion_prob);
  }

  std::uint64_t seed_;
  Scale scale_;
  sim::SimulatorConfig sim_;
  core::InferenceOptions options_;
  std::vector<Entry> entries_;
};

}  // namespace

std::unique_ptr<Workload> make_batch_registry(std::uint64_t seed, Scale scale) {
  return std::make_unique<BatchRegistry>(seed, scale);
}

}  // namespace perfbench
