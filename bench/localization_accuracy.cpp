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
#include <iostream>

#include "bench_common.hpp"
#include "core/independence_algorithm.hpp"
#include "core/localization.hpp"
#include "sim/measurement.hpp"

namespace {

struct Tally {
  std::size_t tp = 0, fp = 0, fn = 0;

  Tally& operator+=(const Tally& other) {
    tp += other.tp;
    fp += other.fp;
    fn += other.fn;
    return *this;
  }
};

struct TrialTallies {
  Tally smallest, map_ind, map_corr;
};

}  // namespace

int main(int argc, char** argv) {
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

  const auto add = [](Tally& t, const core::LocalizationScore& score) {
    t.tp += score.true_positives;
    t.fp += score.false_positives;
    t.fn += score.false_negatives;
  };

  const core::TrialSpec base =
      bench::resolve_trial_spec(s, 0x10c0, core::TopologyKind::kPlanetLab);
  const auto outcomes = run.trials([&](const core::TrialContext& ctx) {
    core::TrialSpec spec = base;
    spec.scenario.congested_fraction = 0.10;
    const auto inst = core::build_scenario(spec.scenario_for(ctx));
    const graph::CoverageIndex coverage(inst.graph, inst.paths);

    // Estimate probabilities from a training run, then localize snapshots
    // of an independent evaluation run.
    const auto training = core::run_experiment(inst, spec.experiment_for(ctx));

    TrialTallies tallies;
    Rng rng(ctx.seed(0x20c0));
    for (std::size_t n = 0; n < eval_snapshots; ++n) {
      const auto state = inst.truth->sample(rng);
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
      add(tallies.smallest,
          core::score_localization(state, ss.congested_links));
      add(tallies.map_ind,
          core::score_localization(state, mi.congested_links));
      add(tallies.map_corr,
          core::score_localization(state, mc.congested_links));
    }
    return tallies;
  });
  Tally smallest, map_ind, map_corr;
  for (const auto& outcome : outcomes) {
    smallest += outcome.value.smallest;
    map_ind += outcome.value.map_ind;
    map_corr += outcome.value.map_corr;
  }

  auto row = [&](const char* name, const Tally& t) {
    const double detection =
        t.tp + t.fn == 0
            ? 1.0
            : static_cast<double>(t.tp) / static_cast<double>(t.tp + t.fn);
    const double fdr =
        t.tp + t.fp == 0
            ? 0.0
            : static_cast<double>(t.fp) / static_cast<double>(t.tp + t.fp);
    return std::vector<std::string>{name, Table::fmt(detection, 3),
                                    Table::fmt(fdr, 3)};
  };
  Table table({"localizer", "detection_rate", "false_discovery_rate"});
  std::cout << "# Localization — per-snapshot congested-link inference "
               "(PlanetLab-like, 10% congested, high correlation)\n";
  table.add_row(row("smallest-set", smallest));
  table.add_row(row("greedy-map-independent", map_ind));
  table.add_row(row("greedy-map-correlation", map_corr));
  run.table("localization_accuracy", table);
  run.finish();
  return 0;
}
