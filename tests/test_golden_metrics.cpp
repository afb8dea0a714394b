// Golden-metrics regression suite: runs small registry scenarios end to
// end (correlation + independence algorithms) plus the theorem algorithm's
// congestion-factor recovery on the Figure 1(a) toy, and compares the
// resulting metrics against committed baselines in tests/golden/*.json.
//
// The baselines turn the bench telemetry numbers into an enforced
// contract: an algorithmic change that shifts accuracy beyond the
// per-metric tolerance fails here instead of rotting silently. To accept
// an intentional change, regenerate the baselines with
//
//   ./build/tests/test_golden_metrics --update-golden
//
// and commit the rewritten tests/golden/*.json (see docs/SCENARIOS.md).
#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario_catalog.hpp"
#include "core/theorem_algorithm.hpp"
#include "corr/joint_table.hpp"
#include "graph/coverage.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef TOMO_GOLDEN_DIR
#error "TOMO_GOLDEN_DIR must be defined by the build"
#endif

namespace tomo {

// Set by main() on --update-golden; rewrites baselines instead of checking.
bool g_update_golden = false;

namespace {

std::string golden_path(const std::string& case_name) {
  return std::string(TOMO_GOLDEN_DIR) + "/" + case_name + ".json";
}

/// Absolute tolerance per metric. Generous enough to absorb libm and
/// optimization-level jitter across platforms, tight enough that a real
/// algorithmic regression (metrics here move by multiples of this when an
/// estimator breaks) fails loudly.
double tolerance_for(const std::string& key) {
  if (key.find("p90_err") != std::string::npos) return 0.020;
  if (key.find("mean_err") != std::string::npos) return 0.010;
  if (key.rfind("alpha_", 0) == 0) return 0.060;
  if (key == "potentially_congested") return 8.0;
  ADD_FAILURE() << "no tolerance registered for metric " << key;
  return 0.0;
}

/// Minimal flat-JSON reader: collects every `"key": <number>` pair. The
/// golden files are written by util::Json with exactly that shape; a full
/// parser would be dead weight.
std::map<std::string, double> read_golden(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "missing golden baseline " << path
                         << " — run test_golden_metrics --update-golden";
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();

  std::map<std::string, double> out;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    std::size_t cursor = key_end + 1;
    while (cursor < text.size() && std::isspace(text[cursor])) ++cursor;
    if (cursor < text.size() && text[cursor] == ':') {
      ++cursor;
      while (cursor < text.size() && std::isspace(text[cursor])) ++cursor;
      if (cursor < text.size() &&
          (std::isdigit(text[cursor]) || text[cursor] == '-')) {
        out[key] = std::strtod(text.c_str() + cursor, nullptr);
      }
    }
    pos = key_end + 1;
  }
  return out;
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// In update mode, rewrites the case's baseline; otherwise compares every
/// metric against it within tolerance_for().
void check_or_update(const std::string& case_name, const Metrics& metrics) {
  if (g_update_golden) {
    util::Json doc = util::Json::object();
    doc.set("case", case_name);
    util::Json body = util::Json::object();
    for (const auto& [key, value] : metrics) {
      body.set(key, value);
    }
    doc.set("metrics", std::move(body));
    std::ofstream os(golden_path(case_name));
    ASSERT_TRUE(os.good()) << "cannot write " << golden_path(case_name);
    doc.write(os);
    std::cout << "[updated] " << golden_path(case_name) << "\n";
    return;
  }

  const auto golden = read_golden(golden_path(case_name));
  if (golden.empty()) {
    // Covers both a missing file (already reported above) and a present
    // but corrupt/empty one — never silently pass with nothing enforced.
    ADD_FAILURE() << case_name
                  << ": golden baseline is missing or unparseable — run "
                     "test_golden_metrics --update-golden";
    return;
  }
  EXPECT_EQ(golden.size(), metrics.size())
      << case_name << ": metric set changed — update the golden baseline";
  for (const auto& [key, value] : metrics) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << case_name << ": metric " << key
                    << " missing from baseline — run --update-golden";
      continue;
    }
    EXPECT_NEAR(value, it->second, tolerance_for(key))
        << case_name << "/" << key
        << " drifted from its golden value; if intentional, run "
           "test_golden_metrics --update-golden and commit tests/golden/";
  }
}

/// One registry scenario end to end at test scale with a pinned seed.
void run_scenario_case(const std::string& name) {
  core::ScenarioConfig config =
      core::shrink_for_tests(core::ScenarioCatalog::instance().at(name).config);
  config.seed = 0x601d;

  const core::ScenarioInstance inst = core::build_scenario(config);
  core::ExperimentConfig ec;
  ec.sim.snapshots = 500;
  ec.sim.packets_per_path = 800;
  ec.sim.seed = mix_seed(config.seed, 0x601d00);
  const core::ExperimentResult result = core::run_experiment(inst, ec);

  const auto corr_errors = result.correlation_errors();
  const auto ind_errors = result.independence_errors();
  ASSERT_FALSE(corr_errors.empty());
  check_or_update(
      name,
      {{"correlation_mean_err", mean(corr_errors)},
       {"correlation_p90_err", percentile(corr_errors, 90.0)},
       {"independence_mean_err", mean(ind_errors)},
       {"independence_p90_err", percentile(ind_errors, 90.0)},
       {"potentially_congested",
        static_cast<double>(result.potentially_congested.size())}});
}

TEST(GoldenMetrics, BriteHigh) { run_scenario_case("brite-high"); }
TEST(GoldenMetrics, BriteLoose) { run_scenario_case("brite-loose"); }
TEST(GoldenMetrics, PlanetLabHigh) { run_scenario_case("planetlab-high"); }
TEST(GoldenMetrics, WaxmanBursty) { run_scenario_case("waxman-bursty"); }
TEST(GoldenMetrics, WormMislabeled) { run_scenario_case("worm-mislabeled"); }
// Pins the scenario the streaming equation harvest opened up: the
// full-scale Waxman measured mesh is regression-guarded from day one.
TEST(GoldenMetrics, WaxmanFull) { run_scenario_case("waxman-full"); }

// Congestion-factor recovery: the theorem algorithm on the paper's worked
// Figure 1(a) example, from simulated measurements. Pins the §3.2 factors
// alpha_A = P(S^p=A)/P(S^p=0) that fig1_tables reports.
TEST(GoldenMetrics, TheoremFig1aCongestionFactors) {
  graph::Graph g;
  const auto a = g.add_node("v4"), b = g.add_node("v3");
  const auto c = g.add_node("v1"), d = g.add_node("v4b");
  const auto f = g.add_node("v5");
  const auto e1 = g.add_link(a, b), e2 = g.add_link(d, b);
  const auto e3 = g.add_link(b, c), e4 = g.add_link(b, f);
  std::vector<graph::Path> paths;
  paths.emplace_back(g, std::vector<graph::LinkId>{e1, e3});
  paths.emplace_back(g, std::vector<graph::LinkId>{e2, e3});
  paths.emplace_back(g, std::vector<graph::LinkId>{e2, e4});
  const corr::CorrelationSets sets(4, {{e1, e2}, {e3}, {e4}});

  corr::SetDistribution d0;
  d0.prob = {0.65, 0.10, 0.05, 0.20};
  corr::SetDistribution d1;
  d1.prob = {0.85, 0.15};
  corr::SetDistribution d2;
  d2.prob = {0.60, 0.40};
  const corr::JointTableModel truth(sets, {d0, d1, d2});

  sim::SimulatorConfig sim_config;
  sim_config.snapshots = 4000;
  sim_config.packets_per_path = 1000;
  sim_config.seed = 0x601d1a;
  auto simr = sim::simulate(g, paths, truth, sim_config);

  const graph::CoverageIndex cov(g, paths);
  const sim::EmpiricalMeasurement meas(std::move(simr.measurement));
  const core::TheoremResult r = core::run_theorem_algorithm(cov, sets, meas);

  // alpha_A by definition from the worked distributions (fig1_tables).
  const std::array<double, 5> definition = {0.10 / 0.65, 0.05 / 0.65,
                                            0.20 / 0.65, 0.15 / 0.85,
                                            0.40 / 0.60};
  const std::array<double, 5> recovered = {r.alpha[0][1], r.alpha[0][2],
                                           r.alpha[0][3], r.alpha[1][1],
                                           r.alpha[2][1]};
  double abs_err = 0.0;
  for (std::size_t i = 0; i < definition.size(); ++i) {
    abs_err += std::abs(recovered[i] - definition[i]) /
               static_cast<double>(definition.size());
  }
  check_or_update("theorem-fig1a",
                  {{"alpha_e1", recovered[0]},
                   {"alpha_e2", recovered[1]},
                   {"alpha_e1e2", recovered[2]},
                   {"alpha_e3", recovered[3]},
                   {"alpha_e4", recovered[4]},
                   {"alpha_mean_abs_err", abs_err}});
}

}  // namespace
}  // namespace tomo

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      tomo::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
