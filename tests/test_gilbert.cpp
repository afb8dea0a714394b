#include <gtest/gtest.h>

#include <cmath>

#include "corr/common_shock.hpp"
#include "corr/gilbert.hpp"
#include "reference/simulator.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::corr {
namespace {

GilbertShockModel two_link_model(double rho, double burst) {
  CorrelationSets sets(2, {{0, 1}});
  std::vector<BurstyShock> shocks(1);
  shocks[0].rho = rho;
  shocks[0].burst_length = burst;
  shocks[0].members = {0, 1};
  return GilbertShockModel(sets, {0.0, 0.0}, shocks);
}

TEST(GilbertModel, TransitionProbabilitiesSatisfyStationarity) {
  const GilbertShockModel model = two_link_model(0.25, 8.0);
  const double r = 1.0 - model.stay_on_prob(0);  // P(on -> off)
  const double q = model.off_to_on_prob(0);
  // Stationary distribution of the chain: q / (q + r) must equal rho.
  EXPECT_NEAR(q / (q + r), 0.25, 1e-12);
}

TEST(GilbertModel, BurstLengthOneAlwaysExits) {
  // burst_length = 1: every ON episode lasts exactly one snapshot, and the
  // OFF->ON rate rises to rho/(1-rho) to keep the stationary mass at rho.
  const GilbertShockModel model = two_link_model(0.3, 1.0);
  EXPECT_DOUBLE_EQ(model.stay_on_prob(0), 0.0);
  EXPECT_NEAR(model.off_to_on_prob(0), 0.3 / 0.7, 1e-12);
}

TEST(GilbertModel, StationaryFrequencyMatchesRho) {
  const GilbertShockModel model = two_link_model(0.2, 10.0);
  Rng rng(7);
  std::size_t on = 0;
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) {
    on += model.sample(rng)[0];
  }
  EXPECT_NEAR(static_cast<double>(on) / static_cast<double>(n), 0.2, 0.01);
}

TEST(GilbertModel, BurstsAreActuallyBursty) {
  const GilbertShockModel model = two_link_model(0.2, 10.0);
  Rng rng(11);
  // Measure mean run length of consecutive congested snapshots.
  std::size_t runs = 0, on_total = 0;
  bool prev = false;
  for (std::size_t i = 0; i < 100000; ++i) {
    const bool on = model.sample(rng)[0] != 0;
    if (on) {
      ++on_total;
      if (!prev) ++runs;
    }
    prev = on;
  }
  ASSERT_GT(runs, 0u);
  const double mean_run =
      static_cast<double>(on_total) / static_cast<double>(runs);
  EXPECT_NEAR(mean_run, 10.0, 1.5);
}

TEST(GilbertModel, PerSnapshotLawMatchesCommonShock) {
  // Same rho/base: the closed-form within-set probabilities coincide with
  // the memoryless common shock.
  CorrelationSets sets(3, {{0, 1, 2}});
  std::vector<BurstyShock> bursty(1);
  bursty[0].rho = 0.25;
  bursty[0].burst_length = 6.0;
  bursty[0].members = {0, 1};
  GilbertShockModel gilbert(sets, {0.1, 0.2, 0.3}, bursty);
  std::vector<Shock> memoryless(1);
  memoryless[0].rho = 0.25;
  memoryless[0].members = {0, 1};
  CommonShockModel shock(sets, {0.1, 0.2, 0.3}, memoryless);
  for (const std::vector<LinkId>& query :
       {std::vector<LinkId>{0}, {1}, {2}, {0, 1}, {0, 2}, {0, 1, 2}}) {
    EXPECT_NEAR(gilbert.within_set_all_good(0, query),
                shock.within_set_all_good(0, query), 1e-12);
  }
}

TEST(GilbertModel, ResetRestartsFromStationary) {
  const GilbertShockModel model = two_link_model(0.5, 50.0);
  Rng rng(3);
  // Drive the chain into a known state, then reset; the next draw must be
  // stationary (probability ~0.5), not a continuation.
  std::size_t on_after_reset = 0;
  const std::size_t trials = 20000;
  for (std::size_t t = 0; t < trials; ++t) {
    model.sample(rng);
    model.reset();
    on_after_reset += model.sample(rng)[0];
    model.reset();
  }
  EXPECT_NEAR(static_cast<double>(on_after_reset) / trials, 0.5, 0.02);
}

TEST(GilbertModel, ValidatesParameters) {
  CorrelationSets sets(1, {{0}});
  std::vector<BurstyShock> shocks(1);
  shocks[0].rho = 0.2;
  shocks[0].burst_length = 0.5;  // < 1 snapshot
  shocks[0].members = {0};
  EXPECT_THROW(GilbertShockModel(sets, {0.0}, shocks), Error);
  shocks[0].burst_length = 2.0;
  shocks[0].rho = 1.0;
  EXPECT_THROW(GilbertShockModel(sets, {0.0}, shocks), Error);
}

TEST(GilbertModel, SimulatorEstimatesStayConsistent) {
  // Assumption 3 (stationarity) holds even though snapshots are dependent:
  // empirical path-good frequencies still converge to the per-snapshot law.
  auto sys = tomo::testing::figure_1a();
  std::vector<BurstyShock> shocks(3);
  shocks[0].rho = 0.25;
  shocks[0].burst_length = 8.0;
  shocks[0].members = {0, 1};
  GilbertShockModel model(sys.sets, {0.0, 0.0, 0.15, 0.3}, shocks);
  sim::SimulatorConfig config;
  config.snapshots = 60000;
  config.seed = 21;
  const auto result =
      reference::simulate_exact(sys.graph, sys.paths, model, config);
  // P(P1 good) = P(e1 good) P(e3 good) = (1-0.25)(1-0.15).
  const double p1_good =
      static_cast<double>(result.measurement.good_counts[0]) /
      static_cast<double>(config.snapshots);
  EXPECT_NEAR(p1_good, 0.75 * 0.85, 0.02);
}

}  // namespace
}  // namespace tomo::corr
