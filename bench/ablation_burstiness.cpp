// Ablation: bursty (Gilbert) congestion vs. memoryless congestion.
//
// The paper's Assumption 3 requires stationarity, not independence across
// snapshots. This ablation drives the same marginal law through bursty
// shocks (a Gilbert chain per correlation set, corr::Shock::burst_length)
// with increasing burst length, next to memoryless shocks (burst length 0),
// and shows that both algorithms remain consistent — convergence just
// slows, because dependent snapshots carry less information per sample.
#include <iostream>

#include "bench_common.hpp"
#include "core/independence_algorithm.hpp"
#include "corr/model_factory.hpp"
#include "metrics/error_metrics.hpp"
#include "sim/measurement.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("ablation_burstiness",
              "Gilbert bursty congestion vs memoryless (Assumption 3)");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("ablation_burstiness", s);

  Table table({"burst_length", "correlation_mean_err",
               "independence_mean_err"});
  std::cout << "# Ablation — mean burst length of congestion episodes "
               "(same stationary marginals; 10% congested, PlanetLab)\n"
               "# burst_length 0 = memoryless shocks (a fresh draw every "
               "snapshot); 1 = every episode lasts exactly one snapshot\n";
  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0xb0, core::TopologyKind::kPlanetLab);
  // 0 is the memoryless baseline. Sweep seeds do not depend on the point,
  // so every row is the same draw whatever the list holds.
  const std::vector<double> bursts{0.0, 1.0, 4.0, 16.0, 64.0};
  const auto swept = run.sweep(
      bursts.size(), [&](std::size_t point, const core::TrialContext& ctx) {
        const double burst = bursts[point];
        core::TrialSpec spec = base;
        spec.scenario.congested_fraction = 0.10;
        const auto inst = core::build_scenario(spec.scenario_for(ctx));

        // Rebuild the scenario's shock model with the same marginals and
        // shock episodes of mean length `burst` snapshots (0: memoryless).
        std::vector<double> congested_marginals;
        congested_marginals.reserve(inst.congested_links.size());
        for (graph::LinkId e : inst.congested_links) {
          congested_marginals.push_back(inst.true_marginals[e]);
        }
        const auto truth_ptr = corr::make_clustered_shock_model(
            inst.declared_sets, inst.congested_links, congested_marginals,
            spec.scenario.correlation_strength, burst);
        const corr::CommonShockModel& truth = *truth_ptr;

        const core::ExperimentConfig config = spec.experiment_for(ctx);
        const graph::CoverageIndex coverage(inst.graph, inst.paths);
        auto simr =
            sim::simulate(inst.graph, inst.paths, truth, config.sim);
        const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
        const auto rc = core::infer_congestion(
            inst.graph, inst.paths, coverage, inst.declared_sets, meas);
        const auto ri = core::infer_congestion_independent(
            inst.graph, inst.paths, coverage, meas);
        const auto truth_marginals = truth.marginals();
        return std::pair(
            mean(metrics::absolute_errors(truth_marginals,
                                          rc.congestion_prob, {})),
            mean(metrics::absolute_errors(truth_marginals,
                                          ri.congestion_prob, {})));
      });
  for (std::size_t point = 0; point < bursts.size(); ++point) {
    double corr_sum = 0.0, ind_sum = 0.0;
    for (const auto& outcome : swept[point]) {
      corr_sum += outcome.value.first;
      ind_sum += outcome.value.second;
    }
    table.add_row({Table::fmt(bursts[point], 0),
                   Table::fmt(corr_sum / s.trials),
                   Table::fmt(ind_sum / s.trials)});
  }
  run.table("ablation_burstiness", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("ablation_burstiness", bench_main, argc,
                                   argv);
}
