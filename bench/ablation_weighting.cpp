// Ablation: variance-weighted equations. Weighting each equation by the
// inverse standard deviation of its estimate (delta method) should help
// most when estimates are thin (few snapshots) and be neutral otherwise.
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("ablation_weighting",
              "variance-weighted vs unweighted equation solving");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("ablation_weighting", s);

  Table table({"snapshots", "unweighted_mean_err", "weighted_mean_err"});
  std::cout << "# Ablation — variance weighting of equations "
               "(correlation algorithm; 10% congested, Brite)\n";
  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0xab50, core::TopologyKind::kBrite);
  const std::vector<std::size_t> counts{125u, 500u, 2000u};
  const auto swept = run.sweep(
      counts.size(), [&](std::size_t point, const core::TrialContext& ctx) {
        core::TrialSpec spec = base;
        spec.scenario.congested_fraction = 0.10;
        spec.sim.snapshots = counts[point];
        const auto inst = core::build_scenario(spec.scenario_for(ctx));
        core::ExperimentConfig config = spec.experiment_for(ctx);
        config.inference.weight_by_variance = false;
        const auto plain = core::run_experiment(inst, config);
        config.inference.weight_by_variance = true;
        const auto weighted = core::run_experiment(inst, config);
        return std::pair(mean(plain.correlation_errors()),
                         mean(weighted.correlation_errors()));
      });
  for (std::size_t point = 0; point < counts.size(); ++point) {
    double plain_sum = 0.0, weighted_sum = 0.0;
    for (const auto& outcome : swept[point]) {
      plain_sum += outcome.value.first;
      weighted_sum += outcome.value.second;
    }
    table.add_row({std::to_string(counts[point]),
                   Table::fmt(plain_sum / s.trials),
                   Table::fmt(weighted_sum / s.trials)});
  }
  run.table("ablation_weighting", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("ablation_weighting", bench_main, argc,
                                   argv);
}
