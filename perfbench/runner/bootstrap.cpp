// bootstrap-waxfull: a 200-replicate core::bootstrap_congestion on
// waxman-full. The harvest runs once; the per-replicate warm NNLS on the
// shared Gram skeleton dominates — the linalg layer used for many small
// warm solves instead of one cold solve.
#include <optional>

#include "bench.hpp"
#include "core/bootstrap.hpp"
#include "core/experiment.hpp"
#include "core/run_trials.hpp"
#include "core/scenario_catalog.hpp"
#include "metrics/error_metrics.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

using namespace tomo;

class BootstrapWaxfull final : public Workload {
 public:
  BootstrapWaxfull(std::uint64_t seed, Scale scale)
      : seed_(seed), scale_(scale) {
    options_.replicates = scale.tiny ? 20 : 200;
    options_.jobs = 1;
    options_.seed = core::TrialContext{0, seed}.seed(0x1b00);
  }

  void setup(Trace* trace) override {
    coverage_.reset();
    block_.reset();
    const core::TrialContext ctx{0, seed_};
    core::ScenarioConfig config =
        core::ScenarioCatalog::instance().at("waxman-full").config;
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
    pass.attempted = options_.replicates;
    try {
      const core::BootstrapResult result =
          maybe_span(trace, "core.bootstrap_s", [&] {
            return core::bootstrap_congestion(instance_.graph, instance_.paths,
                                              *coverage_,
                                              instance_.declared_sets, *block_,
                                              options_);
          });
      pass.failed = result.skipped;
      std::vector<std::size_t> population;
      pass.mean_err = maybe_span(trace, "metrics.score_s", [&] {
        const sim::EmpiricalMeasurement measurement(*block_);
        population =
            core::potentially_congested_links(instance_.paths, measurement);
        return mean_of(metrics::absolute_errors(instance_.true_marginals,
                                                result.point, population));
      });
      if (trace != nullptr) {
        // Share of the scored links whose true marginal lies inside the
        // interval (nominal 90%).
        double inside = 0.0;
        for (const std::size_t link : population) {
          const double truth = instance_.true_marginals[link];
          if (result.lower[link] <= truth && truth <= result.upper[link]) {
            inside += 1.0;
          }
        }
        trace->count("core.ci_coverage",
                     inside / static_cast<double>(population.size()));
        trace->count("core.replicates", static_cast<double>(result.replicates));
        trace->count("core.reharvested",
                     static_cast<double>(result.reharvested));
        trace->count("core.fastpath_ratio",
                     static_cast<double>(pass.attempted - result.reharvested) /
                         static_cast<double>(pass.attempted));
      }
      pass.estimates = {result.point, result.lower, result.upper};
    } catch (const tomo::Error&) {
      pass.failed = pass.attempted;
    }
    pass.wall_s = seconds_since(start);
    pass.window_ms.push_back(1e3 * pass.wall_s);
    pass.snapshots = static_cast<double>(block_->snapshot_count *
                                         (options_.replicates + 1));
    if (trace != nullptr) retime_children(*trace);
    return pass;
  }

  std::vector<std::string> check(const Pass& pass) override {
    if (pass.estimates.size() != 3) return {"bootstrap-waxfull: no intervals"};
    // The bootstrap's point estimate is the correlation algorithm on the
    // full block.
    const sim::EmpiricalMeasurement measurement(*block_);
    const std::vector<double> batch =
        core::infer_congestion(instance_.graph, instance_.paths, *coverage_,
                               instance_.declared_sets, measurement,
                               options_.inference)
            .congestion_prob;
    if (batch != pass.estimates[0]) {
      return {"bootstrap-waxfull: point estimate differs from "
              "infer_congestion on the same block"};
    }
    return {};
  }

 private:
  /// bootstrap_congestion's point harvest, point solve and replicate
  /// resamples, re-timed on the same inputs as its child spans.
  void retime_children(Trace& trace) const {
    const std::string parent = "core.bootstrap_s";
    const core::InferenceOptions& inference = options_.inference;
    const sim::EmpiricalMeasurement full{sim::MeasurementBlock(*block_)};
    const core::RefinedHarvest harvest = trace.span(
        "core.point_harvest_s",
        [&] {
          return core::harvest_refined_system(instance_.graph, instance_.paths,
                                              *coverage_,
                                              instance_.declared_sets, full,
                                              inference);
        },
        parent);
    trace.count("core.equations",
                static_cast<double>(harvest.system.equations.size()));
    const linalg::LogSystemSolution solution = trace.span(
        "linalg.point_solve_s",
        [&] {
          const linalg::SparseSystemView view =
              core::sparse_view(harvest.system);
          linalg::GramSystem skeleton;
          linalg::accumulate_gram(skeleton, view, inference.solver.jobs);
          return linalg::solve_log_system(view, skeleton, inference.solver);
        },
        parent);
    count_solver_detail(trace, solution.detail);
    trace.span(
        "sim.resample_s",
        [&] {
          sim::ResampleScratch scratch;
          std::vector<std::uint32_t> picks;
          std::size_t good = 0;
          for (std::size_t r = 0; r < options_.replicates; ++r) {
            Rng rng = core::replicate_rng(options_.seed, r);
            core::draw_picks_into(block_->snapshot_count, rng, picks);
            good += block_->resample(picks, scratch).snapshot_count;
          }
          return good;
        },
        parent);
  }

  std::uint64_t seed_;
  Scale scale_;
  core::BootstrapOptions options_;
  core::ScenarioInstance instance_;
  std::optional<graph::CoverageIndex> coverage_;
  std::optional<sim::MeasurementBlock> block_;
};

}  // namespace

std::unique_ptr<Workload> make_bootstrap_waxfull(std::uint64_t seed,
                                                 Scale scale) {
  return std::make_unique<BootstrapWaxfull>(seed, scale);
}

}  // namespace perfbench
