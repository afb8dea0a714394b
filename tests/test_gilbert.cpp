// Bursty shocks: CommonShockModel with Shock::burst_length >= 1 drives each
// set's shock through a Gilbert chain that every sample_block call starts
// from its stationary distribution.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "corr/common_shock.hpp"
#include "corr/model_factory.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::corr {
namespace {

/// Two links, both members of one bursty shock and with no private
/// congestion, so link 0's state is the chain's state.
CommonShockModel two_link_model(double rho, double burst) {
  CorrelationSets sets(2, {{0, 1}});
  std::vector<Shock> shocks(1);
  shocks[0].rho = rho;
  shocks[0].burst_length = burst;
  shocks[0].members = {0, 1};
  return CommonShockModel(sets, {0.0, 0.0}, shocks);
}

/// Link 0's state over one `count`-snapshot block.
std::vector<bool> chain_states(const CommonShockModel& model, Rng& rng,
                               std::size_t count) {
  std::vector<std::uint8_t> block(count * model.link_count());
  model.sample_block(rng, count, block.data());
  std::vector<bool> on(count);
  for (std::size_t n = 0; n < count; ++n) {
    on[n] = block[n * model.link_count()] != 0;
  }
  return on;
}

TEST(GilbertModel, TransitionProbabilitiesSatisfyStationarity) {
  // An episode ends with r = 1/burst_length and starts with
  // q = rho r / (1 - rho), so the stationary q / (q + r) is rho.
  const CommonShockModel model = two_link_model(0.25, 8.0);
  Rng rng(5);
  const std::vector<bool> on = chain_states(model, rng, 400000);
  double on_to_off = 0, from_on = 0, off_to_on = 0, from_off = 0;
  for (std::size_t n = 0; n + 1 < on.size(); ++n) {
    if (on[n]) {
      from_on += 1;
      on_to_off += on[n + 1] ? 0 : 1;
    } else {
      from_off += 1;
      off_to_on += on[n + 1] ? 1 : 0;
    }
  }
  const double r = on_to_off / from_on;
  const double q = off_to_on / from_off;
  EXPECT_NEAR(r, 1.0 / 8.0, 0.01);
  EXPECT_NEAR(q, 0.25 * (1.0 / 8.0) / 0.75, 0.005);
  EXPECT_NEAR(q / (q + r), 0.25, 0.02);
}

TEST(GilbertModel, BurstLengthOneAlwaysExits) {
  // burst_length = 1: every episode lasts exactly one snapshot, so no two
  // consecutive snapshots are congested, and the off-to-on rate rises to
  // rho/(1-rho) to keep the stationary mass at rho.
  const CommonShockModel model = two_link_model(0.3, 1.0);
  Rng rng(13);
  const std::vector<bool> on = chain_states(model, rng, 100000);
  std::size_t on_total = 0;
  for (std::size_t n = 0; n < on.size(); ++n) {
    on_total += on[n] ? 1 : 0;
    if (n > 0) {
      ASSERT_FALSE(on[n - 1] && on[n]) << "two on-snapshots at " << n;
    }
  }
  EXPECT_NEAR(static_cast<double>(on_total) / on.size(), 0.3, 0.01);
}

TEST(GilbertModel, StationaryFrequencyMatchesRho) {
  const CommonShockModel model = two_link_model(0.2, 10.0);
  Rng rng(7);
  const std::vector<bool> on = chain_states(model, rng, 200000);
  std::size_t on_total = 0;
  for (bool state : on) on_total += state ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(on_total) / on.size(), 0.2, 0.01);
}

TEST(GilbertModel, BurstsAreActuallyBursty) {
  const CommonShockModel model = two_link_model(0.2, 10.0);
  Rng rng(11);
  // Mean run length of consecutive congested snapshots.
  std::size_t runs = 0, on_total = 0;
  bool prev = false;
  for (bool on : chain_states(model, rng, 100000)) {
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
  // the memoryless shock's, and a long bursty block hits them empirically.
  CorrelationSets sets(3, {{0, 1, 2}});
  std::vector<Shock> shocks(1);
  shocks[0].rho = 0.25;
  shocks[0].members = {0, 1};
  const CommonShockModel memoryless(sets, {0.1, 0.2, 0.3}, shocks);
  shocks[0].burst_length = 6.0;
  const CommonShockModel bursty(sets, {0.1, 0.2, 0.3}, shocks);
  for (const std::vector<LinkId>& query :
       {std::vector<LinkId>{0}, {1}, {2}, {0, 1}, {0, 2}, {0, 1, 2}}) {
    EXPECT_NEAR(bursty.within_set_all_good(0, query),
                memoryless.within_set_all_good(0, query), 1e-12);
  }
  const std::size_t count = 200000;
  std::vector<std::uint8_t> block(count * 3);
  Rng rng(17);
  bursty.sample_block(rng, count, block.data());
  std::size_t pair_good = 0, all_good = 0;
  for (std::size_t n = 0; n < count; ++n) {
    const std::uint8_t* state = block.data() + n * 3;
    pair_good += (state[0] | state[1]) == 0 ? 1 : 0;
    all_good += (state[0] | state[1] | state[2]) == 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(pair_good) / count,
              memoryless.prob_all_good({0, 1}), 0.015);
  EXPECT_NEAR(static_cast<double>(all_good) / count,
              memoryless.prob_all_good({0, 1, 2}), 0.015);
}

TEST(GilbertModel, EveryBlockStartsStationary) {
  // A 50-snapshot mean burst makes a chain's next state almost always its
  // current one. Within a block the second snapshot therefore repeats the
  // first; across blocks the first snapshots must be fresh stationary
  // draws (probability 0.5, agreeing between consecutive blocks half the
  // time), not a continuation of the previous block's chain.
  const CommonShockModel model = two_link_model(0.5, 50.0);
  Rng rng(3);
  const std::size_t blocks = 20000;
  std::size_t first_on = 0, repeats = 0, agrees_with_previous = 0;
  bool previous_first = false;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::vector<bool> on = chain_states(model, rng, 2);
    first_on += on[0] ? 1 : 0;
    repeats += on[0] == on[1] ? 1 : 0;
    if (b > 0) agrees_with_previous += on[0] == previous_first ? 1 : 0;
    previous_first = on[0];
  }
  EXPECT_NEAR(static_cast<double>(first_on) / blocks, 0.5, 0.02);
  EXPECT_GT(static_cast<double>(repeats) / blocks, 0.95);
  EXPECT_NEAR(static_cast<double>(agrees_with_previous) / (blocks - 1), 0.5,
              0.02);
}

TEST(GilbertModel, ValidatesParameters) {
  CorrelationSets sets(1, {{0}});
  std::vector<Shock> shocks(1);
  shocks[0].rho = 0.2;
  shocks[0].members = {0};
  for (double burst : {0.0, 1.0, 2.5}) {
    shocks[0].burst_length = burst;
    EXPECT_NO_THROW(CommonShockModel(sets, {0.0}, shocks)) << burst;
  }
  // Below one snapshot (but not the memoryless 0), negative, or NaN.
  for (double burst : {0.5, 1e-9, 0.999, -1.0,
                       std::numeric_limits<double>::quiet_NaN()}) {
    shocks[0].burst_length = burst;
    EXPECT_THROW(CommonShockModel(sets, {0.0}, shocks), Error) << burst;
  }
  shocks[0].burst_length = 2.0;
  shocks[0].rho = 1.0;
  EXPECT_THROW(CommonShockModel(sets, {0.0}, shocks), Error);
  // The factory hands its burst length to every shock.
  EXPECT_THROW(
      make_clustered_shock_model(sets, {0}, {0.3}, 0.5, /*burst_length=*/0.5),
      Error);
}

TEST(GilbertModel, SimulatorEstimatesStayConsistent) {
  // Assumption 3 (stationarity) holds even though snapshots are dependent:
  // the simulator's empirical link and path frequencies still converge to
  // the per-snapshot law.
  auto sys = tomo::testing::figure_1a();
  std::vector<Shock> shocks(3);
  shocks[0].rho = 0.25;
  shocks[0].burst_length = 8.0;
  shocks[0].members = {0, 1};
  const CommonShockModel model(sys.sets, {0.0, 0.0, 0.15, 0.3}, shocks);
  sim::SimulatorConfig config;
  config.snapshots = 60000;
  config.seed = 21;
  const auto result = sim::simulate(sys.graph, sys.paths, model, config);
  const double n = static_cast<double>(config.snapshots);
  EXPECT_NEAR(static_cast<double>(result.link_congested_count[0]) / n, 0.25,
              0.02);
  // P(P1 good) = P(e1 good) P(e3 good) = (1-0.25)(1-0.15).
  const double p1_good =
      static_cast<double>(result.measurement.good_counts[0]) / n;
  EXPECT_NEAR(p1_good, 0.75 * 0.85, 0.02);
}

}  // namespace
}  // namespace tomo::corr
