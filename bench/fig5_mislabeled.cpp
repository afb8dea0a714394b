// Figure 5(a-d): CDF of the absolute error when 25% / 50% of the congested
// links participate in an unknown correlation pattern (a worm floods
// otherwise-uncorrelated links), at 10% congested links, Brite-like and
// PlanetLab-like topologies.
#include <iostream>

#include "bench_common.hpp"
#include "metrics/cdf.hpp"

namespace {

void run_panel(tomo::bench::Run& run, tomo::core::TopologyKind topo,
               double mislabeled_fraction, const char* label,
               std::uint64_t tag) {
  using namespace tomo;
  const bench::Settings& s = run.settings();
  core::TrialSpec spec = bench::resolve_trial_spec(s, tag, topo);
  spec.scenario.congested_fraction = 0.10;
  spec.scenario.mislabeled_fraction = mislabeled_fraction;
  // The worm strength is part of a named scenario's correlation setup;
  // only the panel's mislabeled fraction is this binary's swept knob.
  if (s.scenario.empty()) spec.scenario.worm_rho = 0.4;
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
  std::cout << "# Fig 5 — " << label
            << " (10% congested; CDF over potentially congested links)\n";
  const auto corr_cdf = metrics::cdf_series(corr_errors);
  const auto ind_cdf = metrics::cdf_series(ind_errors);
  for (std::size_t i = 0; i < corr_cdf.size(); ++i) {
    table.add_row({Table::fmt(corr_cdf[i].x, 2),
                   Table::fmt(corr_cdf[i].percent, 1),
                   Table::fmt(ind_cdf[i].percent, 1)});
  }
  run.table(label, table);
  std::cout << "\n";
}

}  // namespace

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("fig5_mislabeled",
              "Fig 5(a-d): error CDFs with unknown correlation patterns");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("fig5_mislabeled", s);

  run_panel(run, core::TopologyKind::kBrite, 0.25,
            "(a) 25% of congested links mislabeled, Brite", 0x5a00);
  run_panel(run, core::TopologyKind::kBrite, 0.50,
            "(b) 50% of congested links mislabeled, Brite", 0x5b00);
  run_panel(run, core::TopologyKind::kPlanetLab, 0.25,
            "(c) 25% of congested links mislabeled, PlanetLab", 0x5c00);
  run_panel(run, core::TopologyKind::kPlanetLab, 0.50,
            "(d) 50% of congested links mislabeled, PlanetLab", 0x5d00);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("fig5_mislabeled", bench_main, argc, argv);
}
