// Figure 3(a): mean absolute error vs. fraction of congested links, under
// high correlation (> 2 congested links per correlation set), Brite-like
// topology, Assumption 4 holding. Series: correlation algorithm vs.
// independence baseline.
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("fig3a_mean_error",
              "Fig 3(a): mean abs. error vs %congested, high correlation");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("fig3a_mean_error", s);

  Table table({"congested_links_pct", "correlation_mean_err",
               "independence_mean_err"});
  std::cout << "# Fig 3(a) — mean of the absolute error, congested links "
               "highly correlated (Brite)\n";
  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0x3a00, core::TopologyKind::kBrite);
  const std::vector<double> pcts{5.0, 10.0, 15.0, 20.0, 25.0};
  const auto swept = run.sweep(
      pcts.size(), [&](std::size_t point, const core::TrialContext& ctx) {
        core::TrialSpec spec = base;
        spec.scenario.congested_fraction = pcts[point] / 100.0;
        const auto trial = spec.run(ctx);
        return std::pair(mean(trial.result.correlation_errors()),
                         mean(trial.result.independence_errors()));
      });
  for (std::size_t point = 0; point < pcts.size(); ++point) {
    double corr_sum = 0.0, ind_sum = 0.0;
    for (const auto& outcome : swept[point]) {
      corr_sum += outcome.value.first;
      ind_sum += outcome.value.second;
    }
    table.add_row({Table::fmt(pcts[point], 0),
                   Table::fmt(corr_sum / s.trials),
                   Table::fmt(ind_sum / s.trials)});
  }
  run.table("fig3a_mean_error", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("fig3a_mean_error", bench_main, argc, argv);
}
