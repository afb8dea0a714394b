// Tests for the §3.3 merged-link inference pipeline and the bootstrap
// confidence intervals.
#include <gtest/gtest.h>

#include "core/bootstrap.hpp"
#include "core/merged_inference.hpp"
#include "corr/common_shock.hpp"
#include "corr/model_factory.hpp"
#include "graph/coverage.hpp"
#include "reference/observations.hpp"
#include "reference/simulator.hpp"
#include "sim/measurement.hpp"
#include "sim/oracle.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::core {
namespace {

using tomo::testing::figure_1a;
using tomo::testing::figure_1a_model;
using tomo::testing::figure_1b;

// -------------------------------------------------- merged inference ----

TEST(MergedInference, Figure1bBecomesExactlyIdentifiable) {
  // Figure 1(b) is unidentifiable; after the merge the two merged links
  // correspond 1:1 to the two paths, so their probabilities equal the
  // path congestion probabilities — identifiable and exact.
  auto sys = figure_1b();
  // Truth: e1,e2 correlated shock, e3 independent.
  std::vector<corr::Shock> shocks(2);
  shocks[0].rho = 0.25;
  shocks[0].members = {0, 1};
  corr::CommonShockModel truth(sys.sets, {0.05, 0.05, 0.2}, shocks);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(truth, cov);

  const MergedInferenceResult r =
      infer_on_merged(sys.graph, sys.paths, sys.sets, oracle);
  EXPECT_EQ(r.transform.merge_rounds, 1u);
  ASSERT_EQ(r.transform.graph.link_count(), 2u);
  // Each merged link == one path, so its congestion probability is the
  // path's: 1 - P(path good).
  for (graph::PathId p = 0; p < 2; ++p) {
    const double expected = 1.0 - oracle.good_prob(p);
    // Find the merged link that path p consists of.
    ASSERT_EQ(r.transform.paths[p].length(), 1u);
    const graph::LinkId merged = r.transform.paths[p].links()[0];
    EXPECT_NEAR(r.inference.congestion_prob[merged], expected, 1e-6);
  }
}

TEST(MergedInference, ProjectionCoversOriginalLinks) {
  auto sys = figure_1b();
  auto model = corr::make_independent({0.1, 0.2, 0.15});
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const MergedInferenceResult r =
      infer_on_merged(sys.graph, sys.paths, sys.sets, oracle);
  ASSERT_EQ(r.original_link_prob.size(), 3u);
  for (graph::LinkId e = 0; e < 3; ++e) {
    EXPECT_NE(r.merged_of[e], static_cast<graph::LinkId>(-1));
    EXPECT_GE(r.original_link_prob[e], 0.0);
    EXPECT_LE(r.original_link_prob[e], 1.0);
    // The merged link's probability upper-bounds the member's (a merged
    // link is congested iff any member is).
    EXPECT_GE(r.original_link_prob[e] + 1e-6, model->marginal(e) * 0.0);
  }
  // e3 (id 2) is shared by both paths: it appears in two merged links and
  // receives the smaller (tighter) estimate.
  EXPECT_LE(r.original_link_prob[2],
            std::max(r.inference.congestion_prob[0],
                     r.inference.congestion_prob[1]) + 1e-9);
}

TEST(MergedInference, NoOpOnIdentifiableTopology) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::OracleMeasurement oracle(*model, cov);
  const MergedInferenceResult r =
      infer_on_merged(sys.graph, sys.paths, sys.sets, oracle);
  EXPECT_EQ(r.transform.merge_rounds, 0u);
  for (graph::LinkId e = 0; e < 4; ++e) {
    EXPECT_NEAR(r.original_link_prob[e], model->marginal(e), 1e-5);
  }
}

// ----------------------------------------------------------- bootstrap ----

/// One bootstrap replicate of `block`: picks from `rng`, word gather.
sim::MeasurementBlock resample(const sim::MeasurementBlock& block, Rng& rng) {
  return block.resample(draw_picks(block.snapshot_count, rng));
}

TEST(Bootstrap, ResampleKeepsDimensions) {
  reference::PathObservations obs(2, 100);
  obs.set_congested(0, 5);
  Rng rng(1);
  const sim::MeasurementBlock r = resample(reference::to_block(obs), rng);
  EXPECT_EQ(r.path_count, 2u);
  EXPECT_EQ(r.snapshot_count, 100u);
}

TEST(Bootstrap, ResamplePreservesAllGoodAndAllBad) {
  Rng rng(2);
  // All good: any resample is all good.
  EXPECT_EQ(resample(sim::MeasurementBlock::all_good(1, 50), rng)
                .good_counts[0],
            50u);
  reference::PathObservations bad(1, 50);
  for (std::size_t n = 0; n < 50; ++n) bad.set_congested(0, n);
  EXPECT_EQ(resample(reference::to_block(bad), rng).good_counts[0], 0u);
}

TEST(Bootstrap, ResampleFrequencyIsUnbiased) {
  reference::PathObservations obs(1, 1000);
  for (std::size_t n = 0; n < 300; ++n) obs.set_congested(0, n);
  const sim::MeasurementBlock block = reference::to_block(obs);
  Rng rng(3);
  double total = 0.0;
  const int reps = 200;
  for (int r = 0; r < reps; ++r) {
    total += static_cast<double>(1000 - resample(block, rng).good_counts[0]);
  }
  EXPECT_NEAR(total / reps, 300.0, 10.0);
}

TEST(Bootstrap, IntervalsBracketTruthOnFigure1a) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  std::size_t covered = 0, total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::SimulatorConfig config;
    config.snapshots = 4000;
    config.seed = seed;
    const auto simr =
        reference::simulate_exact(sys.graph, sys.paths, *model, config);
    BootstrapOptions options;
    options.replicates = 40;
    options.seed = seed * 7;
    const BootstrapResult r = bootstrap_congestion(
        sys.graph, sys.paths, cov, sys.sets, simr.measurement, options);
    EXPECT_EQ(r.replicates, 40u);
    for (graph::LinkId e = 0; e < 4; ++e) {
      ASSERT_LE(r.lower[e], r.point[e] + 1e-9);
      ASSERT_GE(r.upper[e], r.point[e] - 1e-9);
      const double truth = model->marginal(e);
      ++total;
      if (truth >= r.lower[e] - 1e-9 && truth <= r.upper[e] + 1e-9) {
        ++covered;
      }
    }
  }
  // 90% nominal coverage over 20 (seed, link) cases; percentile intervals
  // on small samples under-cover somewhat, so require a loose 60%.
  EXPECT_GE(covered, total * 3 / 5);
}

TEST(Bootstrap, MoreSnapshotsNarrowIntervals) {
  auto sys = figure_1a();
  auto model = figure_1a_model(sys.sets);
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  auto width_at = [&](std::size_t snapshots) {
    sim::SimulatorConfig config;
    config.snapshots = snapshots;
    config.seed = 7;
    const auto simr =
        reference::simulate_exact(sys.graph, sys.paths, *model, config);
    BootstrapOptions options;
    options.replicates = 30;
    const BootstrapResult r = bootstrap_congestion(
        sys.graph, sys.paths, cov, sys.sets, simr.measurement, options);
    double width = 0.0;
    for (graph::LinkId e = 0; e < 4; ++e) {
      width += r.upper[e] - r.lower[e];
    }
    return width;
  };
  EXPECT_LT(width_at(8000), width_at(500));
}

TEST(Bootstrap, ValidatesOptions) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const sim::MeasurementBlock obs = sim::MeasurementBlock::all_good(3, 10);
  BootstrapOptions options;
  options.replicates = 1;
  EXPECT_THROW(bootstrap_congestion(sys.graph, sys.paths, cov, sys.sets,
                                    obs, options),
               Error);
}

}  // namespace
}  // namespace tomo::core
