// Differential suite for the batched snapshot simulator.
//
// The block-batched engine (sim::simulate) is pinned against an
// independent serial reference (reference::simulate_batched_reference)
// that shares only the RNG, the loss model, and the fate classifier:
// identical good-bit blocks, identical per-path good counts, and identical
// per-link congestion tallies, across every registry scenario and for any
// --jobs. Any divergence is an exactness bug, not a tolerance question, so
// the comparisons are exact. The per-packet reference is held to
// *statistical* agreement only — it draws per-packet Bernoullis, so its
// snapshot fates match the batched engine in distribution, not bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "reference/observations.hpp"
#include "reference/simulator.hpp"
#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"
#include "sim/simulator.hpp"

namespace tomo::sim {
namespace {

void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.snapshots, b.snapshots) << what;
  ASSERT_EQ(a.measurement.path_count, b.measurement.path_count) << what;
  ASSERT_EQ(a.measurement.snapshot_count, b.measurement.snapshot_count)
      << what;
  // Bitwise identity of the packed good-bit rows, word for word.
  ASSERT_EQ(a.measurement.good_bits, b.measurement.good_bits) << what;
  EXPECT_EQ(a.measurement.good_counts, b.measurement.good_counts) << what;
  EXPECT_EQ(a.link_congested_count, b.link_congested_count) << what;
}

SimulatorConfig config_for(std::size_t jobs, std::size_t snapshots) {
  SimulatorConfig config;
  config.snapshots = snapshots;
  config.packets_per_path = 500;
  config.jobs = jobs;
  config.seed = 0xba7c4ed;
  return config;
}

SimulationResult run(const core::ScenarioInstance& inst, std::size_t jobs,
                     std::size_t snapshots) {
  return simulate(inst.graph, inst.paths, *inst.truth,
                  config_for(jobs, snapshots));
}

class RegistrySimDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySimDifferential, BatchedMatchesReferenceBitExactly) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x51f7;
  const core::ScenarioInstance inst = core::build_scenario(config);

  // 150 snapshots: two full 64-snapshot blocks plus a ragged tail word,
  // so the final-word masking is exercised on every scenario.
  const SimulationResult reference = reference::simulate_batched_reference(
      inst.graph, inst.paths, *inst.truth, config_for(1, 150));
  const SimulationResult batched = run(inst, 1, 150);
  expect_identical(batched, reference, GetParam() + " jobs=1");

  const SimulationResult threaded = run(inst, 3, 150);
  expect_identical(threaded, reference, GetParam() + " jobs=3");
}

TEST_P(RegistrySimDifferential, ObservationsRoundTripThroughBlock) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x0b5e;
  const core::ScenarioInstance inst = core::build_scenario(config);
  const SimulationResult result = run(inst, 1, 97);

  // block -> scalar observations -> block is the identity, including the
  // zeroed tail bits past the snapshot count.
  const reference::PathObservations obs =
      reference::to_observations(result.measurement);
  const MeasurementBlock back = reference::to_block(obs);
  EXPECT_EQ(back.good_bits, result.measurement.good_bits) << GetParam();
  EXPECT_EQ(back.good_counts, result.measurement.good_counts) << GetParam();

  // Adopting the block and scanning the scalar copy must answer set
  // queries identically.
  const EmpiricalMeasurement adopted(result.measurement);
  const reference::ScalarMeasurement scalar(obs);
  for (graph::PathId p = 0; p < obs.path_count(); ++p) {
    ASSERT_EQ(adopted.good_prob(p), scalar.good_prob(p))
        << GetParam() << " path " << p;
  }
}

std::vector<std::string> registry_names() {
  return core::ScenarioCatalog::instance().names();
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistrySimDifferential,
    ::testing::ValuesIn(registry_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SimFast, PerPacketAgreesWithBatchedAtBlockGranularity) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at("brite-high").config);
  config.seed = 0x9e12;
  const core::ScenarioInstance inst = core::build_scenario(config);

  // Per-packet draws individual Bernoullis; batched classifies certain
  // fates analytically and samples one binomial otherwise. The two agree
  // in distribution, so per-path good frequencies over many blocks must
  // match within a few binomial standard errors.
  const std::size_t snapshots = 64 * 40;  // 40 full blocks
  const SimulationResult batched = run(inst, 1, snapshots);
  const SimulationResult per_packet = reference::simulate_per_packet(
      inst.graph, inst.paths, *inst.truth, config_for(1, snapshots));

  const double n = static_cast<double>(snapshots);
  for (graph::PathId p = 0; p < inst.paths.size(); ++p) {
    const double fb =
        static_cast<double>(batched.measurement.good_counts[p]) / n;
    const double fp =
        static_cast<double>(per_packet.measurement.good_counts[p]) / n;
    // 5 sigma of a Bernoulli(f) mean over n snapshots, floored for the
    // near-deterministic paths.
    const double sigma =
        std::sqrt(std::max(fb * (1.0 - fb), 1e-4) / n);
    EXPECT_NEAR(fb, fp, 5.0 * sigma + 5e-3) << "path " << p;
  }
}

TEST(SimFast, BatchedIsInvariantAcrossJobCounts) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at("waxman-bursty").config);
  config.seed = 0x0b5;
  const core::ScenarioInstance inst = core::build_scenario(config);
  const SimulationResult one = run(inst, 1, 333);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{5},
                                 std::size_t{0}}) {
    const SimulationResult many = run(inst, jobs, 333);
    expect_identical(many, one, "jobs=" + std::to_string(jobs));
  }
}

}  // namespace
}  // namespace tomo::sim
