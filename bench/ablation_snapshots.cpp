// Ablation: sensitivity to the number of snapshots (experiment length).
// The estimates of P(paths good) converge at 1/sqrt(N); this sweep shows
// where the returns diminish.
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("ablation_snapshots",
              "snapshot-count sensitivity of both algorithms");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("ablation_snapshots", s);

  Table table({"snapshots", "correlation_mean_err",
               "independence_mean_err"});
  std::cout << "# Ablation — snapshot count (10% congested, high "
               "correlation, Brite)\n";
  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0xab30, core::TopologyKind::kBrite);
  const std::vector<std::size_t> counts{125u, 250u, 500u, 1000u, 2000u,
                                        4000u};
  const auto swept = run.sweep(
      counts.size(), [&](std::size_t point, const core::TrialContext& ctx) {
        core::TrialSpec spec = base;
        spec.scenario.congested_fraction = 0.10;
        spec.sim.snapshots = counts[point];
        const auto trial = spec.run(ctx);
        return std::pair(mean(trial.result.correlation_errors()),
                         mean(trial.result.independence_errors()));
      });
  for (std::size_t point = 0; point < counts.size(); ++point) {
    double corr_sum = 0.0, ind_sum = 0.0;
    for (const auto& outcome : swept[point]) {
      corr_sum += outcome.value.first;
      ind_sum += outcome.value.second;
    }
    table.add_row({std::to_string(counts[point]),
                   Table::fmt(corr_sum / s.trials),
                   Table::fmt(ind_sum / s.trials)});
  }
  run.table("ablation_snapshots", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("ablation_snapshots", bench_main, argc,
                                   argv);
}
