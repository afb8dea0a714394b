// Ablation: how much does the choice of solver for the log-domain system
// matter? Runs the Fig 3(c) scenario with each of the four solvers.
#include <array>
#include <iostream>

#include "bench_common.hpp"
#include "core/independence_algorithm.hpp"
#include "sim/measurement.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("ablation_solver",
              "solver ablation on the Fig 3(c) scenario");
  bench::add_common_flags(flags);
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  bench::Run run("ablation_solver", s);

  // Per-solver wall times go to the JSON metrics, not this table: stdout
  // must stay byte-identical across --jobs, and timings are not.
  Table table({"solver", "correlation_mean_err", "correlation_p90_err"});
  std::cout << "# Ablation — solver choice (10% congested, high "
               "correlation, Brite)\n";
  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0xab10, core::TopologyKind::kBrite);
  for (const auto solver :
       {linalg::SolverKind::kNnls, linalg::SolverKind::kLeastSquares,
        linalg::SolverKind::kL1Lp, linalg::SolverKind::kIrls}) {
    const auto outcomes = run.trials([&](const core::TrialContext& ctx) {
      core::TrialSpec spec = base;
      spec.scenario.congested_fraction = 0.10;
      spec.inference.solver.kind = solver;
      const Stopwatch stopwatch;
      const auto trial = spec.run(ctx);
      const double seconds = stopwatch.seconds();
      const auto& result = trial.result;
      return std::array<double, 3>{mean(result.correlation_errors()),
                                   percentile(result.correlation_errors(),
                                              90.0),
                                   seconds};
    });
    double mean_sum = 0.0, p90_sum = 0.0, seconds = 0.0;
    for (const auto& outcome : outcomes) {
      mean_sum += outcome.value[0];
      p90_sum += outcome.value[1];
      seconds += outcome.value[2];
    }
    table.add_row({linalg::to_string(solver),
                   Table::fmt(mean_sum / s.trials),
                   Table::fmt(p90_sum / s.trials)});
    run.metric(std::string("solve_seconds_") + linalg::to_string(solver),
               seconds / static_cast<double>(s.trials));
  }
  run.table("ablation_solver", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("ablation_solver", bench_main, argc, argv);
}
