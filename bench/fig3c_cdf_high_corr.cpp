// Figure 3(c): CDF of the absolute error at 10% congested links, high
// correlation (> 2 congested links per set), Brite-like topology.
#include <iostream>

#include "bench_common.hpp"
#include "metrics/cdf.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("fig3c_cdf_high_corr",
              "Fig 3(c): error CDF at 10% congested, high correlation");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("fig3c_cdf_high_corr", s);

  core::TrialSpec spec =
      bench::resolve_trial_spec(s, 0x3c00, core::TopologyKind::kBrite);
  spec.scenario.congested_fraction = 0.10;
  const auto outcomes = run.trials([&](const core::TrialContext& ctx) {
    const auto trial = spec.run(ctx);
    return std::pair(trial.result.correlation_errors(),
                     trial.result.independence_errors());
  });
  std::vector<double> corr_errors, ind_errors;
  for (const auto& outcome : outcomes) {
    const auto& [ce, ie] = outcome.value;
    corr_errors.insert(corr_errors.end(), ce.begin(), ce.end());
    ind_errors.insert(ind_errors.end(), ie.begin(), ie.end());
  }

  Table table({"abs_error", "correlation_cdf_pct", "independence_cdf_pct"});
  std::cout << "# Fig 3(c) — CDF of the absolute error, 10% congested, "
               "highly correlated (Brite)\n";
  const auto corr_cdf = metrics::cdf_series(corr_errors);
  const auto ind_cdf = metrics::cdf_series(ind_errors);
  for (std::size_t i = 0; i < corr_cdf.size(); ++i) {
    table.add_row({Table::fmt(corr_cdf[i].x, 2),
                   Table::fmt(corr_cdf[i].percent, 1),
                   Table::fmt(ind_cdf[i].percent, 1)});
  }
  run.table("fig3c_cdf_high_corr", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("fig3c_cdf_high_corr", bench_main, argc,
                                   argv);
}
