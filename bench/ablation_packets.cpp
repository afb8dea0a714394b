// Ablation: probe-packet budget per path per snapshot.
//
// Path congestion is detected by thresholding a measured loss rate; with
// few packets, good paths whose links sit near the tl threshold are
// misclassified, which injects a *bias* (not just variance) into the
// P(paths good) estimates that no amount of snapshots removes. This sweep
// locates the packet budget where detection noise stops dominating.
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("ablation_packets",
              "probe-packet budget sensitivity of both algorithms");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("ablation_packets", s);

  Table table({"packets_per_path", "correlation_mean_err",
               "independence_mean_err"});
  std::cout << "# Ablation — probe packets per path per snapshot (10% "
               "congested, high correlation, Brite)\n";
  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0xab40, core::TopologyKind::kBrite);
  const std::vector<std::size_t> budgets{100u, 250u, 500u, 1000u, 2000u,
                                         4000u};
  const auto swept = run.sweep(
      budgets.size(), [&](std::size_t point, const core::TrialContext& ctx) {
        core::TrialSpec spec = base;
        spec.scenario.congested_fraction = 0.10;
        spec.sim.packets_per_path = budgets[point];
        const auto trial = spec.run(ctx);
        return std::pair(mean(trial.result.correlation_errors()),
                         mean(trial.result.independence_errors()));
      });
  for (std::size_t point = 0; point < budgets.size(); ++point) {
    double corr_sum = 0.0, ind_sum = 0.0;
    for (const auto& outcome : swept[point]) {
      corr_sum += outcome.value.first;
      ind_sum += outcome.value.second;
    }
    table.add_row({std::to_string(budgets[point]),
                   Table::fmt(corr_sum / s.trials),
                   Table::fmt(ind_sum / s.trials)});
  }
  run.table("ablation_packets", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("ablation_packets", bench_main, argc, argv);
}
