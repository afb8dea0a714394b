#include <gtest/gtest.h>

#include <cmath>

#include "corr/model_factory.hpp"
#include "reference/observations.hpp"
#include "reference/simulator.hpp"
#include "sim/estimator.hpp"
#include "sim/loss_model.hpp"
#include "sim/measurement.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::sim {
namespace {

using reference::PathObservations;

// --------------------------------------------------------- loss model ----

TEST(LossModel, RatesRespectThreshold) {
  LossModel lm(0.01);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double good = lm.sample_loss_rate(rng, false);
    EXPECT_GE(good, 0.0);
    EXPECT_LE(good, 0.01);
    const double bad = lm.sample_loss_rate(rng, true);
    EXPECT_GE(bad, 0.01);
    EXPECT_LE(bad, 1.0);
  }
}

TEST(LossModel, PathThresholdFormula) {
  LossModel lm(0.01);
  EXPECT_NEAR(lm.path_threshold(1), 0.01, 1e-12);
  EXPECT_NEAR(lm.path_threshold(3), 1.0 - std::pow(0.99, 3), 1e-12);
  EXPECT_THROW(lm.path_threshold(0), Error);
}

TEST(LossModel, RejectsBadThreshold) {
  EXPECT_THROW(LossModel(0.0), Error);
  EXPECT_THROW(LossModel(1.0), Error);
}

// --------------------------------------------------- path observations ----

TEST(PathObservations, BitAccounting) {
  PathObservations obs(2, 100);
  EXPECT_EQ(obs.good_count(0), 100u);
  obs.set_congested(0, 3);
  obs.set_congested(0, 64);  // second word
  obs.set_congested(1, 3);
  EXPECT_EQ(obs.good_count(0), 98u);
  EXPECT_TRUE(obs.congested(0, 3));
  EXPECT_FALSE(obs.congested(0, 4));
  // Congested snapshots of either path: {3, 64} -> 98 jointly good.
  EXPECT_EQ(obs.both_good_count(0, 1), 98u);
  const std::vector<PathId> both = {0, 1};
  EXPECT_EQ(obs.all_good_count(both), 98u);
}

TEST(PathObservations, ExactPatternCount) {
  PathObservations obs(3, 10);
  // Snapshot 0: paths {0,1} congested. Snapshot 1: {0}. Snapshot 2: {0,1}.
  obs.set_congested(0, 0);
  obs.set_congested(1, 0);
  obs.set_congested(0, 1);
  obs.set_congested(0, 2);
  obs.set_congested(1, 2);
  EXPECT_EQ(obs.exact_pattern_count({0, 1}), 2u);
  EXPECT_EQ(obs.exact_pattern_count({0}), 1u);
  EXPECT_EQ(obs.exact_pattern_count({}), 7u);
  EXPECT_EQ(obs.exact_pattern_count({2}), 0u);
}

TEST(PathObservations, TailBitsDoNotLeak) {
  // snapshot_count not a multiple of 64: the all-good pattern must count
  // only real snapshots.
  PathObservations obs(1, 70);
  EXPECT_EQ(obs.exact_pattern_count({}), 70u);
  EXPECT_EQ(obs.good_count(0), 70u);
}

// ---------------------------------------------------------- simulator ----

TEST(Simulator, ExactModeAppliesSeparability) {
  auto sys = tomo::testing::figure_1a();
  // e3 always congested, everything else always good.
  auto model = corr::make_independent({0.0, 0.0, 1.0, 0.0});
  SimulatorConfig config;
  config.snapshots = 50;
  const auto result =
      reference::simulate_exact(sys.graph, sys.paths, *model, config);
  // P1={e1,e3} and P2={e2,e3} congested every snapshot; P3={e2,e4} never.
  EXPECT_EQ(result.measurement.good_counts,
            (std::vector<std::size_t>{0, 0, 50}));
  EXPECT_EQ(result.link_congested_count[2], 50u);
  EXPECT_EQ(result.link_congested_count[0], 0u);
}

TEST(Simulator, DetectsCongestionReliably) {
  auto sys = tomo::testing::figure_1a();
  auto model = corr::make_independent({0.0, 0.0, 1.0, 0.0});
  SimulatorConfig config;
  config.snapshots = 200;
  config.packets_per_path = 1000;
  config.seed = 9;
  const auto result = simulate(sys.graph, sys.paths, *model, config);
  // With 1000 packets, a congested path (loss > ~1%) is almost always
  // detected and a good path almost never misflagged.
  EXPECT_LE(result.measurement.good_counts[0], 20u);
  EXPECT_GE(result.measurement.good_counts[2], 180u);
}

TEST(Simulator, DeterministicInSeed) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  SimulatorConfig config;
  config.snapshots = 100;
  config.seed = 33;
  const auto r1 = simulate(sys.graph, sys.paths, *model, config);
  const auto r2 = simulate(sys.graph, sys.paths, *model, config);
  EXPECT_EQ(r1.measurement.good_bits, r2.measurement.good_bits);
}

TEST(Simulator, EmpiricalMarginalsTrackModel) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  SimulatorConfig config;
  config.snapshots = 20000;
  config.seed = 5;
  const auto result =
      reference::simulate_exact(sys.graph, sys.paths, *model, config);
  for (graph::LinkId e = 0; e < 4; ++e) {
    const double freq =
        static_cast<double>(result.link_congested_count[e]) /
        static_cast<double>(config.snapshots);
    EXPECT_NEAR(freq, model->marginal(e), 0.02) << "link " << e;
  }
}

// -------------------------------------------------------- measurement ----

TEST(EmpiricalMeasurement, ProbabilitiesFromCounts) {
  PathObservations obs(2, 10);
  obs.set_congested(0, 0);
  obs.set_congested(0, 1);
  obs.set_congested(1, 1);
  const EmpiricalMeasurement m(reference::to_block(obs));
  EXPECT_DOUBLE_EQ(m.good_prob(0), 0.8);
  EXPECT_DOUBLE_EQ(m.good_prob(1), 0.9);
  EXPECT_DOUBLE_EQ(m.pair_good_prob(0, 1), 0.8);
  EXPECT_DOUBLE_EQ(m.exact_pattern_prob({0}), 0.1);
  EXPECT_EQ(m.sample_count(), 10u);
}

// ------------------------------------------------------------- oracle ----

TEST(Oracle, PathProbabilitiesMatchModel) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const OracleMeasurement oracle(*model, cov);
  // P1 = {e1,e3}: P(good) = P(e1 good) * P(e3 good).
  EXPECT_NEAR(oracle.good_prob(0), 0.70 * 0.85, 1e-12);
  // Pair (P1,P2) involves {e1,e2,e3}.
  EXPECT_NEAR(oracle.pair_good_prob(0, 1), 0.65 * 0.85, 1e-12);
  EXPECT_EQ(oracle.sample_count(), 0u);
}

TEST(Oracle, PatternProbabilitiesSumToOne) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const OracleMeasurement oracle(*model, cov);
  // Sum of P(ψ(S) = T) over all subsets T of paths must be 1.
  double total = 0.0;
  for (std::uint32_t mask = 0; mask < 8; ++mask) {
    graph::PathIdSet pattern;
    for (std::uint32_t bit = 0; bit < 3; ++bit) {
      if (mask & (1u << bit)) pattern.push_back(bit);
    }
    total += oracle.exact_pattern_prob(pattern);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Oracle, PatternProbMatchesEmpirical) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const OracleMeasurement oracle(*model, cov);
  SimulatorConfig config;
  config.snapshots = 50000;
  config.seed = 77;
  auto result =
      reference::simulate_exact(sys.graph, sys.paths, *model, config);
  const EmpiricalMeasurement empirical(std::move(result.measurement));
  for (const graph::PathIdSet& pattern :
       {graph::PathIdSet{}, {0}, {0, 1}, {0, 1, 2}, {2}}) {
    EXPECT_NEAR(empirical.exact_pattern_prob(pattern),
                oracle.exact_pattern_prob(pattern), 0.01);
  }
}

// ---------------------------------------------------------- estimator ----

TEST(LogEstimate, UsableAndUnusableCases) {
  const auto ok = log_estimate(0.5);
  EXPECT_TRUE(ok.usable);
  EXPECT_NEAR(ok.log_prob, std::log(0.5), 1e-12);

  const auto zero = log_estimate(0.0);
  EXPECT_FALSE(zero.usable);

  // Any positive probability is usable, however small.
  const auto tiny = log_estimate(1e-9);
  EXPECT_TRUE(tiny.usable);

  EXPECT_THROW(log_estimate(-0.1), Error);
}

}  // namespace
}  // namespace tomo::sim
