// Extension experiment (paper §3.3 "determine whether a link was congested"
// and its stated future work): per-snapshot congested-link localization.
//
// Compares three localizers over simulated snapshots:
//   smallest-set            — the [13]-style parsimony heuristic
//   greedy MAP (independent) — probability-guided, probabilities from the
//                              independence baseline
//   greedy MAP (correlation) — probabilities from the correlation algorithm
//
// Reported: detection rate (fraction of truly congested links flagged) and
// false-discovery rate (fraction of flagged links that were good).
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/independence_algorithm.hpp"
#include "core/localization.hpp"
#include "sim/measurement.hpp"

namespace {

void add(tomo::core::LocalizationScore& total,
         const tomo::core::LocalizationScore& score) {
  total.true_positives += score.true_positives;
  total.false_positives += score.false_positives;
  total.false_negatives += score.false_negatives;
}

struct TrialScores {
  tomo::core::LocalizationScore smallest, map_ind, map_corr;
};

}  // namespace

namespace {

int bench_main(int argc, char** argv) {
  using namespace tomo;
  Flags flags("localization_accuracy",
              "per-snapshot localization: smallest-set vs MAP variants");
  bench::add_common_flags(flags);
  flags.add_int("eval-snapshots", 300,
                "snapshots localized and scored per trial");
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  const std::size_t eval_snapshots = flags.get_count("eval-snapshots");
  bench::Run run("localization_accuracy", s);

  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0x10c0, core::TopologyKind::kPlanetLab);
  const auto outcomes = run.trials([&](const core::TrialContext& ctx) {
    core::TrialSpec spec = base;
    spec.scenario.congested_fraction = 0.10;
    const auto inst = core::build_scenario(spec.scenario_for(ctx));
    const graph::CoverageIndex coverage(inst.graph, inst.paths);

    // Estimate probabilities from a training run, then localize snapshots
    // of an independent evaluation run, drawn as one timeline.
    const auto training = core::run_experiment(inst, spec.experiment_for(ctx));

    TrialScores scores;
    Rng rng(ctx.seed(0x20c0));
    const std::size_t links = inst.graph.link_count();
    std::vector<std::uint8_t> states(eval_snapshots * links);
    inst.truth->sample_block(rng, eval_snapshots, states.data());
    for (std::size_t n = 0; n < eval_snapshots; ++n) {
      const std::vector<std::uint8_t> state(states.data() + n * links,
                                            states.data() + (n + 1) * links);
      graph::PathIdSet congested;
      for (graph::PathId p = 0; p < inst.paths.size(); ++p) {
        for (graph::LinkId e : inst.paths[p].links()) {
          if (state[e]) {
            congested.push_back(p);
            break;
          }
        }
      }
      const auto ss = core::localize_smallest_set(coverage, congested);
      const auto mi = core::localize_greedy_map(
          coverage, congested, training.independence.congestion_prob);
      const auto mc = core::localize_greedy_map(
          coverage, congested, training.correlation.congestion_prob);
      add(scores.smallest,
          core::score_localization(state, ss.congested_links));
      add(scores.map_ind,
          core::score_localization(state, mi.congested_links));
      add(scores.map_corr,
          core::score_localization(state, mc.congested_links));
    }
    return scores;
  });
  core::LocalizationScore smallest, map_ind, map_corr;
  for (const auto& outcome : outcomes) {
    add(smallest, outcome.value.smallest);
    add(map_ind, outcome.value.map_ind);
    add(map_corr, outcome.value.map_corr);
  }

  auto row = [](const char* name, const core::LocalizationScore& score) {
    return std::vector<std::string>{
        name, Table::fmt(score.detection_rate(), 3),
        Table::fmt(score.false_discovery_rate(), 3)};
  };
  Table table({"localizer", "detection_rate", "false_discovery_rate"});
  std::cout << "# Localization — per-snapshot congested-link inference ";
  if (s.scenario.empty()) {
    std::cout << "(PlanetLab-like, 10% congested, high correlation)\n";
  } else {
    std::cout << "(scenario '" << s.scenario << "', 10% congested)\n";
  }
  table.add_row(row("smallest-set", smallest));
  table.add_row(row("greedy-map-independent", map_ind));
  table.add_row(row("greedy-map-correlation", map_corr));
  run.table("localization_accuracy", table);
  run.finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("localization_accuracy", bench_main, argc,
                                   argv);
}
