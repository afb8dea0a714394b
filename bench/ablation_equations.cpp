// Ablation: value of the pair equations (paper Eq. 10). Compares
// singles-only against singles+pairs on the Fig 3(c) scenario, reporting
// system rank and accuracy.
#include <array>
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("ablation_equations",
              "equation-source ablation (singles vs singles+pairs)");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("ablation_equations", s);

  Table table({"equations", "rank_fraction", "n1", "n2",
               "correlation_mean_err", "correlation_p90_err"});
  std::cout << "# Ablation — single-path equations only vs + pair "
               "equations (10% congested, high correlation, Brite)\n";
  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0xab20, core::TopologyKind::kBrite);
  for (const bool use_pairs : {false, true}) {
    const auto outcomes = run.trials([&](const core::TrialContext& ctx) {
      core::TrialSpec spec = base;
      spec.scenario.congested_fraction = 0.10;
      spec.inference.equations.use_pairs = use_pairs;
      const auto trial = spec.run(ctx);
      const auto& result = trial.result;
      return std::array<double, 5>{
          mean(result.correlation_errors()),
          percentile(result.correlation_errors(), 90.0),
          static_cast<double>(result.correlation.system.rank) /
              static_cast<double>(result.correlation.system.link_count),
          static_cast<double>(result.correlation.system.n1),
          static_cast<double>(result.correlation.system.n2)};
    });
    double mean_sum = 0.0, p90_sum = 0.0, rank_sum = 0.0;
    double n1_sum = 0.0, n2_sum = 0.0;
    for (const auto& outcome : outcomes) {
      mean_sum += outcome.value[0];
      p90_sum += outcome.value[1];
      rank_sum += outcome.value[2];
      n1_sum += outcome.value[3];
      n2_sum += outcome.value[4];
    }
    table.add_row({use_pairs ? "singles+pairs" : "singles-only",
                   Table::fmt(rank_sum / s.trials, 3),
                   Table::fmt(n1_sum / s.trials, 1),
                   Table::fmt(n2_sum / s.trials, 1),
                   Table::fmt(mean_sum / s.trials),
                   Table::fmt(p90_sum / s.trials)});
  }
  run.table("ablation_equations", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("ablation_equations", bench_main, argc,
                                   argv);
}
