// Differential suite for the §3.3 harvest chain.
//
// core::harvest_refined_system decides the demotion round from the
// round's single-path equations and harvests pairs once, on the final
// structure. reference::harvest_refined_system is the chain as first
// written: every round a full build, pairs included. On every registry
// entry and on random meshes, under every option the chain reads, the two
// must agree bit for bit on the final system (equations, order, y and
// every counter) and on refined_links. Their replay certificates differ
// only by the pairs of the discarded round: production's witness_paths are
// the reference's without pairs, and its unusable list is the reference's
// without the discarded round's pairs. Production's shorter certificate
// must still be exact: a replay it certifies is a fresh harvest.
//
// Production runs at most one demotion round, where the reference loops
// up to three times: a demotion only splits sets, so every path that
// covered a link stays correlation-free and usable, and every link left
// uncovered is alone in its set afterwards. SecondRoundNeverFires checks
// that argument on every fixture, since the differential alone could not
// tell a fixture where a second round fires from one where it is missing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bootstrap.hpp"
#include "core/correlation_algorithm.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "corr/identifiability.hpp"
#include "graph/coverage.hpp"
#include "reference/harvest_chain.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tomo::core {
namespace {

struct Fixture {
  ScenarioInstance inst;
  graph::CoverageIndex coverage;
  sim::MeasurementBlock block;
};

Fixture prepare(const ScenarioConfig& config, std::uint64_t sim_seed,
                std::size_t snapshots = 300, std::size_t packets = 500) {
  ScenarioInstance inst = build_scenario(config);
  graph::CoverageIndex coverage(inst.graph, inst.paths);
  sim::SimulatorConfig sc;
  sc.snapshots = snapshots;
  sc.packets_per_path = packets;
  sc.seed = sim_seed;
  sim::MeasurementBlock block =
      sim::simulate(inst.graph, inst.paths, *inst.truth, sc).measurement;
  return Fixture{std::move(inst), std::move(coverage), std::move(block)};
}

/// Equations (links, paths, y bitwise), their order and every counter.
/// With `ys`, equation i's y must be ys[i] instead of b's.
void expect_same_system(const EquationSystem& a, const EquationSystem& b,
                        const std::string& what,
                        const std::vector<double>* ys = nullptr) {
  ASSERT_EQ(a.equations.size(), b.equations.size()) << what;
  for (std::size_t i = 0; i < a.equations.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.equations[i].links, b.equations[i].links))
        << what << ": equation " << i;
    EXPECT_TRUE(std::ranges::equal(a.equations[i].paths, b.equations[i].paths))
        << what << ": equation " << i;
    EXPECT_EQ(a.equations[i].y, ys != nullptr ? (*ys)[i] : b.equations[i].y)
        << what << ": equation " << i;
  }
  EXPECT_EQ(a.link_count, b.link_count) << what;
  EXPECT_EQ(a.n1, b.n1) << what;
  EXPECT_EQ(a.n2, b.n2) << what;
  EXPECT_EQ(a.rank, b.rank) << what;
  EXPECT_EQ(a.dropped_correlated, b.dropped_correlated) << what;
  EXPECT_EQ(a.dropped_unusable, b.dropped_unusable) << what;
  EXPECT_EQ(a.dropped_dependent, b.dropped_dependent) << what;
  EXPECT_EQ(a.pair_candidates_tried, b.pair_candidates_tried) << what;
}

bool is_single(CandidatePaths c) { return c.first == c.second; }

/// The links the chain demotes before it harvests: the structural
/// Assumption-4 links, when refinement is on.
std::vector<graph::LinkId> structural_links(const Fixture& f,
                                            const corr::CorrelationSets& sets,
                                            const InferenceOptions& options) {
  if (!options.refine_unidentifiable) return {};
  return corr::structurally_unidentifiable_links(f.inst.graph, f.inst.paths,
                                                 sets);
}

/// Runs both chains and compares them; returns whether a demotion round
/// fired (the chain demoted links beyond the structural ones).
bool expect_chain_matches_reference(const Fixture& f,
                                    const corr::CorrelationSets& sets,
                                    const InferenceOptions& options,
                                    const std::string& what) {
  const sim::EmpiricalMeasurement measurement{sim::MeasurementBlock(f.block)};
  const RefinedHarvest ref = reference::harvest_refined_system(
      f.inst.graph, f.inst.paths, f.coverage, sets, measurement, options);
  const RefinedHarvest got = harvest_refined_system(
      f.inst.graph, f.inst.paths, f.coverage, sets, measurement, options);

  expect_same_system(got.system, ref.system, what);
  EXPECT_EQ(got.refined_links, ref.refined_links) << what;

  std::vector<CandidatePaths> witnesses;
  std::ranges::copy_if(ref.witness_paths, std::back_inserter(witnesses),
                       is_single);
  EXPECT_EQ(got.witness_paths, witnesses) << what;

  // The final build's unusable candidates close both lists: as many as its
  // dropped_unusable counter counts. Before them come the discarded
  // rounds', whose pairs production never tries.
  EXPECT_LE(ref.system.dropped_unusable, ref.unusable.size()) << what;
  const std::size_t discarded =
      ref.unusable.size() - ref.system.dropped_unusable;
  std::vector<CandidatePaths> unusable;
  for (std::size_t i = 0; i < ref.unusable.size(); ++i) {
    if (i >= discarded || is_single(ref.unusable[i])) {
      unusable.push_back(ref.unusable[i]);
    }
  }
  EXPECT_EQ(got.unusable, unusable) << what;

  return got.refined_links.size() > structural_links(f, sets, options).size();
}

/// The InferenceOptions variations the chain reads: refinement on and
/// off, no pairs, and a small pair budget.
std::vector<std::pair<std::string, InferenceOptions>> option_variations() {
  std::vector<std::pair<std::string, InferenceOptions>> out(4);
  out[0].first = "default";
  out[1].first = "no-refine";
  out[1].second.refine_unidentifiable = false;
  out[2].first = "no-pairs";
  out[2].second.equations.use_pairs = false;
  out[3].first = "pair-budget-25";
  out[3].second.equations.max_pair_equations = 25;
  return out;
}

/// Every registry entry, shrunk, under its declared sets.
std::vector<std::pair<std::string, Fixture>> registry_fixtures() {
  std::vector<std::pair<std::string, Fixture>> out;
  for (const std::string& name : ScenarioCatalog::instance().names()) {
    ScenarioConfig config =
        shrink_for_tests(ScenarioCatalog::instance().at(name).config);
    config.seed = 0xc4a1;
    out.emplace_back(name, prepare(config, 0xc4a100));
  }
  return out;
}

/// Waxman and PlanetLab meshes, built as
/// EquationsFast.RandomTopologiesSeedsAndOptionVariations builds its
/// meshes.
std::vector<std::pair<std::string, Fixture>> random_fixtures() {
  std::vector<std::pair<std::string, Fixture>> out;
  Rng rng(0xc4a2);
  for (int round = 0; round < 4; ++round) {
    ScenarioConfig config;
    config.topology =
        round % 2 == 0 ? TopologyKind::kWaxman : TopologyKind::kPlanetLab;
    config.routers = 60 + 20 * round;
    config.vantage_points = 8 + 2 * round;
    config.cluster_size = 3 + round;
    config.seed = rng.below(1u << 30);
    const std::uint64_t sim_seed = rng.below(1u << 30);
    out.emplace_back("mesh " + std::to_string(round),
                     prepare(config, sim_seed));
  }
  return out;
}

/// Compares the chains on every fixture under every option variation and
/// fails if no demotion round fired on any of them.
void expect_chains_match(
    const std::vector<std::pair<std::string, Fixture>>& fixtures) {
  std::size_t fired = 0, runs = 0;
  for (const auto& [name, f] : fixtures) {
    for (const auto& [variation, options] : option_variations()) {
      fired += expect_chain_matches_reference(f, f.inst.declared_sets, options,
                                              name + " " + variation);
      ++runs;
    }
  }
  std::cout << "[chain] a demotion round fired in " << fired << " of " << runs
            << " runs\n";
  EXPECT_GT(fired, 0u) << "no fixture exercises a demotion round";
}

TEST(RegistryHarvestChainDifferential, EveryEntryAndOptionMatchesReference) {
  expect_chains_match(registry_fixtures());
}

TEST(HarvestChainDifferential, RandomMeshesAndOptionsMatchReference) {
  expect_chains_match(random_fixtures());
}

/// After the chain, no link is left uncovered inside a set of two or more
/// links, so the reference's further rounds never fire.
TEST(HarvestChainDifferential, SecondRoundNeverFires) {
  std::size_t fired = 0;
  for (const auto& fixtures : {registry_fixtures(), random_fixtures()}) {
    for (const auto& [name, f] : fixtures) {
      const sim::EmpiricalMeasurement measurement{
          sim::MeasurementBlock(f.block)};
      const RefinedHarvest harvest = harvest_refined_system(
          f.inst.graph, f.inst.paths, f.coverage, f.inst.declared_sets,
          measurement, {});
      fired += harvest.refined_links.size() >
               structural_links(f, f.inst.declared_sets, {}).size();
      // The final structure: every structural and demoted link alone.
      const corr::CorrelationSets final_sets =
          demote_to_singletons(f.inst.declared_sets, harvest.refined_links);
      std::vector<std::uint8_t> covered(f.coverage.link_count(), 0);
      for (const Equation eq : harvest.system.equations) {
        for (graph::LinkId e : eq.links) covered[e] = 1;
      }
      for (graph::LinkId e = 0; e < f.coverage.link_count(); ++e) {
        if (covered[e]) continue;
        EXPECT_EQ(final_sets.set(final_sets.set_of(e)).size(), 1u)
            << name << ": link " << e
            << " is uncovered in a set a second round would relax";
      }
    }
  }
  EXPECT_GT(fired, 0u);
}

// ------------------------------------------------------- certificate ----

/// waxman-worm-bursty (secretly correlated links, like the worm-mislabeled
/// fixture of BootstrapFast.UnprovableSupportFallsBackToReferencePath, where
/// no demotion round fires) at 8 snapshots: the demotion round fires, it
/// finds singles unusable, and resamples flip candidates' usability both
/// ways. A resample production's lists certify must re-harvest to the kept
/// system with only the y values new; every resample the reference's
/// longer lists certify must be certified.
TEST(HarvestChainCertificate, CertifiedResampleIsAFreshHarvest) {
  ScenarioConfig config = shrink_for_tests(
      ScenarioCatalog::instance().at("waxman-worm-bursty").config);
  config.seed = 0xb001;
  const Fixture f = prepare(config, 0x51ee, 8, 400);
  const ScenarioInstance& inst = f.inst;
  const sim::MeasurementBlock& block = f.block;

  const sim::EmpiricalMeasurement full{sim::MeasurementBlock(block)};
  const RefinedHarvest kept = harvest_refined_system(
      inst.graph, inst.paths, f.coverage, inst.declared_sets, full, {});
  const RefinedHarvest ref_kept = reference::harvest_refined_system(
      inst.graph, inst.paths, f.coverage, inst.declared_sets, full, {});
  ASSERT_GT(kept.refined_links.size(),
            structural_links(f, inst.declared_sets, {}).size())
      << "the fixture lost its demotion round";
  ASSERT_FALSE(kept.witness_paths.empty());
  ASSERT_GT(kept.unusable.size(), kept.system.dropped_unusable)
      << "the demotion round no longer finds a single unusable";

  // A usable pair the kept harvest dropped as dependent can turn unusable
  // in a resample (replay_harvest's documented blind spot), which would
  // move dropped_unusable and dropped_dependent but no equation; no
  // certified resample of this fixture does, so every counter must hold.
  constexpr std::size_t kResamples = 48;
  std::size_t certified = 0, refused = 0, only_production = 0;
  std::vector<double> ys, ref_ys;
  for (std::size_t r = 0; r < kResamples; ++r) {
    Rng rng = replicate_rng(0x5a11, r);
    const auto picks = draw_picks(block.snapshot_count, rng);
    const sim::EmpiricalMeasurement resample(block.resample(picks));
    const std::string what = "resample " + std::to_string(r);
    const bool ok = replay_harvest(kept, resample, ys);
    if (replay_harvest(ref_kept, resample, ref_ys)) {
      EXPECT_TRUE(ok) << what << ": the reference's lists certify it";
    } else {
      only_production += ok;
    }
    if (!ok) {
      ++refused;
      continue;
    }
    ++certified;
    const RefinedHarvest fresh = harvest_refined_system(
        inst.graph, inst.paths, f.coverage, inst.declared_sets, resample, {});
    expect_same_system(fresh.system, kept.system, what, &ys);
    EXPECT_EQ(fresh.refined_links, kept.refined_links) << what;
  }
  std::cout << "[certificate] " << certified << " of " << kResamples
            << " resamples certified, " << only_production
            << " of them only without the discarded round's pairs\n";
  EXPECT_GT(certified, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace tomo::core
