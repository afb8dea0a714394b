// Differential suite for the batched bootstrap engine.
//
// core::bootstrap_congestion is pinned against the serial full
// re-inference reference (reference::bootstrap_congestion), which shares
// only the per-replicate seed streams: with warm starts off, intervals are
// bitwise identical at matched seeds on every registry scenario, for any
// `jobs`, and on the re-harvest fallback path. The word-level
// MeasurementBlock::resample gather is pinned the same way against the
// scalar per-bit reference::resample_snapshots, and percentile_pair
// against two separate percentile calls. Any divergence is an exactness
// bug, not a tolerance question, so the comparisons are exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/bootstrap.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "linalg/solvers.hpp"
#include "reference/bootstrap.hpp"
#include "reference/observations.hpp"
#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace tomo::core {
namespace {

using reference::PathObservations;
using tomo::testing::figure_1a;

void expect_identical(const BootstrapResult& a, const BootstrapResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.point, b.point) << what;
  EXPECT_EQ(a.lower, b.lower) << what;
  EXPECT_EQ(a.upper, b.upper) << what;
  EXPECT_EQ(a.replicates, b.replicates) << what;
  EXPECT_EQ(a.skipped, b.skipped) << what;
}

struct Workload {
  core::ScenarioInstance inst;
  sim::SimulationResult simr;
};

/// 150 snapshots by default: two full 64-snapshot words plus a ragged
/// tail.
Workload registry_workload(const std::string& name,
                           std::size_t snapshots = 150) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(name).config);
  config.seed = 0xb001;
  Workload w{core::build_scenario(config), {}};
  sim::SimulatorConfig sc;
  sc.snapshots = snapshots;
  sc.packets_per_path = 400;
  sc.seed = 0x51ee;
  w.simr = sim::simulate(w.inst.graph, w.inst.paths, *w.inst.truth, sc);
  return w;
}

class RegistryBootstrapDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryBootstrapDifferential, BatchedMatchesReferenceBitwise) {
  const Workload w = registry_workload(GetParam());
  const graph::CoverageIndex cov(w.inst.graph, w.inst.paths);

  BootstrapOptions options;
  options.replicates = 10;
  options.seed = 0xb00;
  options.jobs = 1;
  // Warm starts reach the same optimum along a different active-set path;
  // off, the fast path is the reference arithmetic bit for bit.
  options.warm_start = false;

  const BootstrapResult serial = reference::bootstrap_congestion(
      w.inst.graph, w.inst.paths, cov, w.inst.declared_sets,
      w.simr.measurement, options);
  const BootstrapResult batched =
      bootstrap_congestion(w.inst.graph, w.inst.paths, cov,
                           w.inst.declared_sets, w.simr.measurement, options);
  expect_identical(batched, serial, GetParam());
}

TEST_P(RegistryBootstrapDifferential, JobsDoNotChangeIntervals) {
  const Workload w = registry_workload(GetParam());
  const graph::CoverageIndex cov(w.inst.graph, w.inst.paths);

  BootstrapOptions options;  // warm starts on: the default
  options.replicates = 12;
  options.seed = 0xfa2;
  options.jobs = 1;
  const BootstrapResult serial =
      bootstrap_congestion(w.inst.graph, w.inst.paths, cov,
                           w.inst.declared_sets, w.simr.measurement, options);
  options.jobs = 3;
  const BootstrapResult threaded =
      bootstrap_congestion(w.inst.graph, w.inst.paths, cov,
                           w.inst.declared_sets, w.simr.measurement, options);
  expect_identical(threaded, serial, GetParam() + " jobs=3");
  EXPECT_EQ(threaded.reharvested, serial.reharvested) << GetParam();
}

std::vector<std::string> registry_names() {
  return core::ScenarioCatalog::instance().names();
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryBootstrapDifferential,
    ::testing::ValuesIn(registry_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ------------------------------------------- solver kinds & weighting ----

// Every solver kind and weighting takes the one replay path. A
// least-squares bootstrap replays the point harvest instead of
// re-harvesting every replicate, and both it and a variance-weighted one
// (whose Gram is rebuilt per replicate) equal the reference bit for bit.
TEST(BootstrapFast, EverySolverKindAndWeightingMatchesReference) {
  for (const std::string name :
       {"brite-high", "waxman-bursty", "planetlab-loose"}) {
    const Workload w = registry_workload(name);
    const graph::CoverageIndex cov(w.inst.graph, w.inst.paths);
    BootstrapOptions least_squares;
    least_squares.replicates = 12;
    least_squares.seed = 0x15;
    least_squares.inference.solver.kind = linalg::SolverKind::kLeastSquares;
    BootstrapOptions weighted;
    weighted.replicates = 12;
    weighted.seed = 0x3e;
    weighted.warm_start = false;
    weighted.inference.weight_by_variance = true;
    for (const BootstrapOptions& options : {least_squares, weighted}) {
      const std::string what =
          name + (options.inference.weight_by_variance ? " weighted" : " ls");
      const BootstrapResult serial = reference::bootstrap_congestion(
          w.inst.graph, w.inst.paths, cov, w.inst.declared_sets,
          w.simr.measurement, options);
      const BootstrapResult batched = bootstrap_congestion(
          w.inst.graph, w.inst.paths, cov, w.inst.declared_sets,
          w.simr.measurement, options);
      expect_identical(batched, serial, what);
      EXPECT_LT(batched.reharvested, options.replicates) << what;
    }
  }
}

// ------------------------------------------------- fallback & skipping ----

// At few snapshots some resamples lose a good snapshot an equation of the
// point harvest rested on: replay_harvest refuses those replicates, which
// take the full re-harvest, while the rest keep the fast path. Both must
// agree with the reference bit for bit.
TEST(BootstrapFast, UnprovableSupportFallsBackToReferencePath) {
  // worm-mislabeled: secretly correlated links, so the refine/demote
  // chain actually fires before the harvest a replicate re-runs.
  const Workload w = registry_workload("worm-mislabeled", 11);
  const graph::CoverageIndex cov(w.inst.graph, w.inst.paths);
  const sim::EmpiricalMeasurement full{
      sim::MeasurementBlock(w.simr.measurement)};
  ASSERT_FALSE(harvest_refined_system(w.inst.graph, w.inst.paths, cov,
                                      w.inst.declared_sets, full, {})
                   .refined_links.empty());

  BootstrapOptions options;
  options.replicates = 8;
  options.seed = 0x5a11;
  options.warm_start = false;

  const BootstrapResult serial = reference::bootstrap_congestion(
      w.inst.graph, w.inst.paths, cov, w.inst.declared_sets,
      w.simr.measurement, options);
  const BootstrapResult batched =
      bootstrap_congestion(w.inst.graph, w.inst.paths, cov,
                           w.inst.declared_sets, w.simr.measurement, options);
  EXPECT_GT(batched.reharvested, 0u);
  EXPECT_LT(batched.reharvested, options.replicates);
  EXPECT_EQ(serial.reharvested, 0u);  // the reference never reports it
  expect_identical(batched, serial, "worm-mislabeled");
}

// A path with a single good snapshot flips its equations' usability in
// exactly the replicates whose resample drops that snapshot: those must
// take the fallback, the others the fast path, and both must agree with
// the reference bit for bit.
TEST(BootstrapFast, SupportChangeTriggersPerReplicateFallback) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const std::size_t n = 32;
  PathObservations obs(3, n);
  // Paths 1 and 2 good everywhere; path 0 good only in snapshot 0.
  for (std::size_t s = 1; s < n; ++s) obs.set_congested(0, s);
  const sim::MeasurementBlock block = reference::to_block(obs);

  BootstrapOptions options;
  options.replicates = 24;
  options.seed = 0xfb;
  options.warm_start = false;
  const BootstrapResult batched = bootstrap_congestion(
      sys.graph, sys.paths, cov, sys.sets, block, options);
  // P(a 32-draw resample keeps snapshot 0) ~ 0.63: both branches must be
  // exercised. Deterministic given the fixed seed.
  EXPECT_GT(batched.reharvested, 0u);
  EXPECT_LT(batched.reharvested, options.replicates);

  const BootstrapResult serial = reference::bootstrap_congestion(
      sys.graph, sys.paths, cov, sys.sets, block, options);
  expect_identical(batched, serial, "single-good-snapshot path");
}

// Replicates whose resample loses every usable equation are dropped, not
// silently folded in: engine and reference account for every requested
// replicate and agree on which were lost.
TEST(BootstrapFast, SkippedReplicatesAreAccountedFor) {
  auto sys = figure_1a();
  const graph::CoverageIndex cov(sys.graph, sys.paths);
  const std::size_t n = 16;
  PathObservations obs(3, n);
  // Every path good only in snapshot 0: a resample that misses it has no
  // usable equation at all and the replicate must be skipped.
  for (sim::PathId p = 0; p < 3; ++p) {
    for (std::size_t s = 1; s < n; ++s) obs.set_congested(p, s);
  }
  const sim::MeasurementBlock block = reference::to_block(obs);

  BootstrapOptions options;
  options.replicates = 30;
  options.seed = 0x5c1;
  options.warm_start = false;
  const BootstrapResult batched = bootstrap_congestion(
      sys.graph, sys.paths, cov, sys.sets, block, options);
  EXPECT_GT(batched.skipped, 0u);  // ~36% of resamples miss snapshot 0
  EXPECT_EQ(batched.replicates + batched.skipped, options.replicates);

  const BootstrapResult serial = reference::bootstrap_congestion(
      sys.graph, sys.paths, cov, sys.sets, block, options);
  EXPECT_EQ(serial.replicates + serial.skipped, options.replicates);
  expect_identical(batched, serial, "mostly-unusable sample");
}

// ------------------------------------------------- resample & percentiles

// The word-level gather must reproduce the scalar per-bit resample
// exactly, picks for picks — including the zeroed tail past the snapshot
// count and the per-path good counts.
TEST(BootstrapFast, BlockResampleMatchesScalarReference) {
  const std::size_t paths = 5, n = 150;
  PathObservations obs(paths, n);
  Rng fill(0xf111);
  for (sim::PathId p = 0; p < paths; ++p) {
    for (std::size_t s = 0; s < n; ++s) {
      if (fill.below(3) == 0) obs.set_congested(p, s);
    }
  }
  const sim::MeasurementBlock block = reference::to_block(obs);

  for (std::uint64_t seed : {1ull, 7ull, 0xabcdull}) {
    // Both paths consume the identical pick stream by contract.
    Rng scalar_rng(seed);
    const PathObservations scalar =
        reference::resample_snapshots(obs, scalar_rng);
    Rng block_rng(seed);
    const std::vector<std::uint32_t> picks = draw_picks(n, block_rng);
    const sim::MeasurementBlock gathered = block.resample(picks);
    const sim::MeasurementBlock expected = reference::to_block(scalar);
    EXPECT_EQ(gathered.good_bits, expected.good_bits) << "seed " << seed;
    EXPECT_EQ(gathered.good_counts, expected.good_counts) << "seed " << seed;
  }
}

TEST(BootstrapFast, PercentilePairMatchesTwoSeparateCalls) {
  Rng rng(0x9e);
  for (const std::size_t size : {1u, 2u, 7u, 40u, 201u}) {
    std::vector<double> values(size);
    for (double& v : values) {
      v = static_cast<double>(rng.below(1000)) / 999.0;
    }
    const Interval pair = percentile_pair(values, 5.0, 95.0);
    EXPECT_EQ(pair.lo, percentile(values, 5.0)) << size;
    EXPECT_EQ(pair.hi, percentile(values, 95.0)) << size;
  }
}

}  // namespace
}  // namespace tomo::core
