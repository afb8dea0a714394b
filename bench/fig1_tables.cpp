// Figure 1 / §3.1-3.2 tables: executable documentation of the paper's
// proof illustration. Prints, for both toy topologies, the ψ coverage
// table of every correlation subset and the Assumption-4 verdict; then,
// for Figure 1(a), the congestion factors α_A recovered by the theorem
// algorithm from the *exact* oracle next to their definitional values;
// and finally the same factors recovered from *simulated measurements* —
// --trials independent experiments (fanned across --jobs workers) of
// --snapshots snapshots at --packets probes each, with a bootstrap
// confidence interval per factor (--replicates resamples per trial).
//
// With --scenario the binary instead times the full-pipeline bootstrap
// (core::bootstrap_congestion) on the named registry entry: interval
// summary on stdout, wall-time telemetry in the JSON.
#include <array>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/bootstrap.hpp"
#include "core/theorem_algorithm.hpp"
#include "corr/identifiability.hpp"
#include "corr/joint_table.hpp"
#include "graph/coverage.hpp"
#include "sim/measurement.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace tomo;

struct Toy {
  graph::Graph graph;
  std::vector<graph::Path> paths;
  corr::CorrelationSets sets;
};

Toy figure_1a() {
  Toy t;
  const auto a = t.graph.add_node("v4"), b = t.graph.add_node("v3");
  const auto c = t.graph.add_node("v1"), d = t.graph.add_node("v4b");
  const auto f = t.graph.add_node("v5");
  const auto e1 = t.graph.add_link(a, b), e2 = t.graph.add_link(d, b);
  const auto e3 = t.graph.add_link(b, c), e4 = t.graph.add_link(b, f);
  t.paths.emplace_back(t.graph, std::vector<graph::LinkId>{e1, e3});
  t.paths.emplace_back(t.graph, std::vector<graph::LinkId>{e2, e3});
  t.paths.emplace_back(t.graph, std::vector<graph::LinkId>{e2, e4});
  t.sets = corr::CorrelationSets(4, {{e1, e2}, {e3}, {e4}});
  return t;
}

Toy figure_1b() {
  Toy t;
  const auto a = t.graph.add_node("v4"), b = t.graph.add_node("v3");
  const auto c = t.graph.add_node("v1"), d = t.graph.add_node("v4b");
  const auto e1 = t.graph.add_link(a, b), e2 = t.graph.add_link(d, b);
  const auto e3 = t.graph.add_link(b, c);
  t.paths.emplace_back(t.graph, std::vector<graph::LinkId>{e1, e3});
  t.paths.emplace_back(t.graph, std::vector<graph::LinkId>{e2, e3});
  t.sets = corr::CorrelationSets(3, {{e1, e2}, {e3}});
  return t;
}

/// The worked §3.2 joint model on Figure 1(a).
corr::JointTableModel worked_model(const Toy& toy) {
  corr::SetDistribution d0;
  d0.prob = {0.65, 0.10, 0.05, 0.20};
  corr::SetDistribution d1;
  d1.prob = {0.85, 0.15};
  corr::SetDistribution d2;
  d2.prob = {0.60, 0.40};
  return corr::JointTableModel(toy.sets, {d0, d1, d2});
}

constexpr std::size_t kAlphaCount = 5;
constexpr std::array<const char*, kAlphaCount> kAlphaNames = {
    "{e1}", "{e2}", "{e1,e2}", "{e3}", "{e4}"};
// alpha_A = P(S^p=A)/P(S^p=0) per set, from the worked distributions.
constexpr std::array<double, kAlphaCount> kAlphaDefinition = {
    0.10 / 0.65, 0.05 / 0.65, 0.20 / 0.65, 0.15 / 0.85, 0.40 / 0.60};

std::array<double, kAlphaCount> extract_alphas(
    const core::TheoremResult& r) {
  return {r.alpha[0][1], r.alpha[0][2], r.alpha[0][3], r.alpha[1][1],
          r.alpha[2][1]};
}

std::string link_set_name(const std::vector<graph::LinkId>& links) {
  std::string out = "{";
  for (std::size_t i = 0; i < links.size(); ++i) {
    out += (i ? ",e" : "e") + std::to_string(links[i] + 1);
  }
  return out + "}";
}

std::string path_set_name(const graph::PathIdSet& paths) {
  std::string out = "{";
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out += (i ? ",P" : "P") + std::to_string(paths[i] + 1);
  }
  return out + "}";
}

void psi_table(bench::Run& run, const Toy& toy, const char* title) {
  const graph::CoverageIndex cov(toy.graph, toy.paths);
  std::cout << "# " << title << "\n";
  Table table({"A in C-tilde", "psi(A)"});
  for (const auto& subset :
       corr::enumerate_correlation_subsets(toy.sets)) {
    table.add_row({link_set_name(subset.links),
                   path_set_name(cov.covered_paths(subset.links))});
  }
  run.table(title, table);
  const auto report = corr::check_identifiability(cov, toy.sets);
  std::cout << "Assumption 4 " << (report.holds ? "HOLDS" : "VIOLATED");
  if (!report.holds) {
    std::cout << " — e.g. " << link_set_name(report.collisions[0].a.links)
              << " and " << link_set_name(report.collisions[0].b.links)
              << " cover the same paths";
  }
  std::cout << "\n\n";
}

struct McTrial {
  bool valid = false;  // false: the simulation was too degenerate to solve
  std::size_t skipped = 0;  // replicates a degenerate resample dropped
  std::array<double, kAlphaCount> estimate{};
  std::array<double, kAlphaCount> ci_lo{};
  std::array<double, kAlphaCount> ci_hi{};
};

/// Mean upper-lower interval width across links (stdout-safe: fully
/// deterministic).
double mean_ci_width(const core::BootstrapResult& r) {
  double sum = 0.0;
  for (std::size_t e = 0; e < r.lower.size(); ++e) {
    sum += r.upper[e] - r.lower[e];
  }
  return r.lower.empty() ? 0.0 : sum / static_cast<double>(r.lower.size());
}

/// --scenario mode: full-pipeline bootstrap benchmark on a registry entry.
/// One simulation, then the bootstrap on its measurement block. Wall times
/// go to the JSON metrics only — stdout is byte-identical for any --jobs,
/// which the CI identity check relies on.
void scenario_bootstrap(bench::Run& run, const bench::Settings& s,
                        std::size_t replicates) {
  core::TrialSpec spec = bench::resolve_trial_spec(
      s, core::ScenarioCatalog::instance().at(s.scenario), 0x5ce0);
  spec.bootstrap.replicates = replicates;
  const core::TrialContext ctx{0, s.seed};
  const core::ScenarioInstance inst =
      core::build_scenario(spec.scenario_for(ctx));
  sim::SimulatorConfig sim_config = spec.sim;
  sim_config.seed = ctx.seed(spec.sim_tag);
  const auto simr =
      sim::simulate(inst.graph, inst.paths, *inst.truth, sim_config);
  const graph::CoverageIndex cov(inst.graph, inst.paths);

  std::cout << "# full-pipeline bootstrap on scenario '" << s.scenario
            << "' — " << replicates << " replicates x "
            << inst.graph.link_count() << " links, "
            << sim_config.snapshots << " snapshots\n";
  core::BootstrapOptions boot = spec.bootstrap_for(ctx);
  boot.jobs = s.jobs;
  {
    // Untimed warm-up (page cache, allocator arenas, branch predictors):
    // a short discarded run so the timed one does not pay the process cold
    // start. Stdout is untouched.
    core::BootstrapOptions warm_up = boot;
    warm_up.replicates = std::max<std::size_t>(2, std::min<std::size_t>(
                                                      replicates, 16));
    core::bootstrap_congestion(inst.graph, inst.paths, cov,
                               inst.declared_sets, simr.measurement, warm_up);
  }
  const Stopwatch timer;
  const core::BootstrapResult r =
      core::bootstrap_congestion(inst.graph, inst.paths, cov,
                                 inst.declared_sets, simr.measurement, boot);
  const double seconds = timer.seconds();

  Table table({"replicates", "skipped", "reharvested", "mean_ci_width"});
  table.add_row({std::to_string(r.replicates), std::to_string(r.skipped),
                 std::to_string(r.reharvested),
                 Table::fmt(mean_ci_width(r), 6)});
  run.table("scenario bootstrap", table);
  run.metric("bootstrap_batched_seconds", seconds)
      .metric("bootstrap_batched_resample_seconds", r.resample_seconds)
      .metric("bootstrap_skipped", static_cast<double>(r.skipped))
      .metric("bootstrap_reharvested", static_cast<double>(r.reharvested));
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags("fig1_tables",
              "Fig 1 / §3.1-3.2: coverage tables and congestion factors");
  bench::add_common_flags(flags);
  flags.add_int("replicates", 1000,
                "bootstrap resamples per trial for the alpha CIs (and of "
                "the --scenario mode bootstrap)");
  if (!flags.parse(argc, argv)) return 0;
  const bench::Settings s = bench::settings_from_flags(flags);
  const std::size_t replicates = flags.get_count("replicates");
  bench::Run run("fig1_tables", s);

  if (!s.scenario.empty()) {
    // Registry mode: the toys below describe two fixed four-node
    // topologies, so a --scenario invocation benchmarks the full-pipeline
    // bootstrap on the named entry instead.
    scenario_bootstrap(run, s, replicates);
    run.finish();
    return 0;
  }

  psi_table(run, figure_1a(),
            "Figure 1(a): correlation-subset coverage table");
  psi_table(run, figure_1b(),
            "Figure 1(b): correlation-subset coverage table");

  // §3.2: congestion factors on Figure 1(a) with the worked joint model,
  // recovered from the exact oracle (no sampling error).
  {
    const Toy toy = figure_1a();
    const corr::JointTableModel truth = worked_model(toy);
    const graph::CoverageIndex cov(toy.graph, toy.paths);
    const sim::OracleMeasurement oracle(truth, cov);
    const core::TheoremResult r =
        core::run_theorem_algorithm(cov, toy.sets, oracle);
    const auto recovered = extract_alphas(r);

    std::cout << "# §3.2 congestion factors on Figure 1(a) — theorem "
                 "algorithm vs definition (alpha_A = P(S^p=A)/P(S^p=0))\n";
    Table table({"A", "alpha_recovered", "alpha_definition"});
    for (std::size_t i = 0; i < kAlphaCount; ++i) {
      table.add_row({kAlphaNames[i], Table::fmt(recovered[i], 6),
                     Table::fmt(kAlphaDefinition[i], 6)});
    }
    run.table("oracle congestion factors", table);
  }

  // The same recovery from simulated measurements: each trial simulates
  // --snapshots snapshots of the worked model, runs the theorem algorithm
  // on the empirical pattern probabilities, and bootstraps the snapshot
  // axis for a 90% CI per factor. Trials are independent and fan across
  // --jobs workers; aggregation is in trial order, so the table below is
  // identical for any --jobs.
  const auto outcomes = run.trials([&](const core::TrialContext& ctx) {
    const Toy toy = figure_1a();
    const corr::JointTableModel truth = worked_model(toy);
    const graph::CoverageIndex cov(toy.graph, toy.paths);

    sim::SimulatorConfig sim_config;
    sim_config.snapshots = s.snapshots;
    sim_config.packets_per_path = s.packets;
    sim_config.seed = ctx.seed(0x1a00);
    auto simr = sim::simulate(toy.graph, toy.paths, truth, sim_config);
    // The bootstrap resamples the packed block directly (word-level
    // gathers); keep it alongside the measurement that adopts it.
    const sim::MeasurementBlock block = simr.measurement;

    McTrial trial;
    try {
      const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
      trial.estimate =
          extract_alphas(core::run_theorem_algorithm(cov, toy.sets, meas));
      trial.valid = true;
    } catch (const Error&) {
      // A pattern the algorithm needs was never observed (tiny
      // --snapshots / unlucky seed); report the trial as unusable
      // instead of aborting the binary.
      return trial;
    }

    // Percentile bootstrap over snapshot resamples, through the batched
    // resample engine: replicate r always draws from
    // replicate_rng(ctx.seed(0x1b00), r), so the sweep is identical for
    // any fan-out — and with a single trial the replicates themselves
    // spread across --jobs. Replicates that leave a needed pattern
    // unobserved are dropped *and counted* (JSON telemetry below).
    const auto replicate_alphas = core::resample_sweep(
        block, replicates, ctx.seed(0x1b00), s.trials == 1 ? s.jobs : 1,
        [&](const sim::EmpiricalMeasurement& meas) {
          return extract_alphas(
              core::run_theorem_algorithm(cov, toy.sets, meas));
        });
    std::array<std::vector<double>, kAlphaCount> samples;
    for (const auto& alphas : replicate_alphas) {
      if (!alphas) {
        ++trial.skipped;
        continue;
      }
      for (std::size_t i = 0; i < kAlphaCount; ++i) {
        samples[i].push_back((*alphas)[i]);
      }
    }
    for (std::size_t i = 0; i < kAlphaCount; ++i) {
      if (samples[i].empty()) {
        trial.ci_lo[i] = trial.ci_hi[i] = trial.estimate[i];
      } else {
        const Interval interval = percentile_pair(samples[i], 5.0, 95.0);
        trial.ci_lo[i] = interval.lo;
        trial.ci_hi[i] = interval.hi;
      }
    }
    return trial;
  });

  std::array<double, kAlphaCount> est_sum{}, lo_sum{}, hi_sum{};
  double abs_err_sum = 0.0;
  std::size_t valid_trials = 0, skipped_total = 0;
  for (const auto& outcome : outcomes) {
    if (!outcome.value.valid) continue;
    ++valid_trials;
    skipped_total += outcome.value.skipped;
    for (std::size_t i = 0; i < kAlphaCount; ++i) {
      est_sum[i] += outcome.value.estimate[i];
      lo_sum[i] += outcome.value.ci_lo[i];
      hi_sum[i] += outcome.value.ci_hi[i];
      abs_err_sum +=
          std::abs(outcome.value.estimate[i] - kAlphaDefinition[i]);
    }
  }
  const std::size_t attempted = replicates * valid_trials;
  if (skipped_total * 10 > attempted) {
    std::cerr << "fig1_tables: warning: " << skipped_total << " of "
              << attempted << " bootstrap replicates were degenerate and "
              << "dropped; the alpha CIs rest on a thinned sample\n";
  }

  std::cout << "\n# §3.2 congestion factors from simulated measurements — "
            << valid_trials << " usable of " << s.trials << " trial(s) x "
            << s.snapshots << " snapshots, 90% bootstrap CI\n";
  if (valid_trials == 0) {
    std::cout << "(no usable trials: every simulation missed a pattern the "
                 "theorem algorithm needs; raise --snapshots)\n";
  } else {
    const double trials = static_cast<double>(valid_trials);
    Table mc_table({"A", "alpha_definition", "alpha_mc_mean", "ci90_lo",
                    "ci90_hi"});
    for (std::size_t i = 0; i < kAlphaCount; ++i) {
      mc_table.add_row({kAlphaNames[i], Table::fmt(kAlphaDefinition[i], 6),
                        Table::fmt(est_sum[i] / trials, 6),
                        Table::fmt(lo_sum[i] / trials, 6),
                        Table::fmt(hi_sum[i] / trials, 6)});
    }
    run.table("monte-carlo congestion factors", mc_table);
    run.metric("alpha_mean_abs_err",
               abs_err_sum / (trials * static_cast<double>(kAlphaCount)));
    run.metric("bootstrap_replicates", static_cast<double>(attempted));
    run.metric("bootstrap_skipped_replicates",
               static_cast<double>(skipped_total));
  }
  run.finish();
  return 0;
}
