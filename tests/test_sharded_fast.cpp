// Differential suite for core::ShardedInference.
//
// The exactness contract (sharded_inference.hpp): with an unbounded plan
// the shards are link-disjoint, correlation-closed components, and — when
// the pair-equation budget does not bind — each shard harvests exactly the
// monolithic equations that live inside it, so the sharded solution must
// match the monolithic pipeline's up to Gram-summation rounding. These
// tests pin that across every registry scenario (1e-8, bitwise on
// one-shard plans, which run the same plan → shard → reconcile pipeline),
// pin bit-identity across --jobs, and check the structural/reconciliation
// invariants of capped plans, including a synthetic traceroute dump driven
// end to end through the sharded path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "core/sharded_inference.hpp"
#include "corr/identifiability.hpp"
#include "corr/model_factory.hpp"
#include "graph/coverage.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "topogen/traceroute.hpp"
#include "util/rng.hpp"

namespace tomo::core {
namespace {

struct PreparedScenario {
  ScenarioInstance inst;
  graph::CoverageIndex coverage;
  sim::MeasurementBlock block;
};

PreparedScenario prepare(ScenarioConfig config, std::uint64_t sim_seed) {
  ScenarioInstance inst = build_scenario(config);
  graph::CoverageIndex coverage(inst.graph, inst.paths);
  sim::SimulatorConfig sc;
  sc.snapshots = 300;
  sc.packets_per_path = 500;
  sc.seed = sim_seed;
  sim::SimulationResult sim_result =
      sim::simulate(inst.graph, inst.paths, *inst.truth, sc);
  return PreparedScenario{std::move(inst), std::move(coverage),
                          std::move(sim_result.measurement)};
}

/// Both sides of the differential must run with a pair budget that cannot
/// bind: only then is the harvest's acceptance order-independent and the
/// monolithic equation set restriction-decomposable across shards.
InferenceOptions unbudgeted_inference() {
  InferenceOptions options;
  options.equations.max_pair_equations = 1'000'000;
  return options;
}

void check_plan_invariants(const ShardPlan& plan,
                           const std::vector<graph::Path>& paths,
                           std::size_t link_count, const std::string& what) {
  // Paths partition exactly; shard link lists are sorted, deduplicated,
  // and are precisely the links their paths traverse.
  std::vector<std::size_t> owner(paths.size(), SIZE_MAX);
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    const Shard& shard = plan.shards[s];
    EXPECT_FALSE(shard.paths.empty()) << what << ": empty shard " << s;
    for (graph::PathId p : shard.paths) {
      ASSERT_LT(p, paths.size()) << what;
      EXPECT_EQ(owner[p], SIZE_MAX)
          << what << ": path " << p << " in two shards";
      owner[p] = s;
    }
    ASSERT_TRUE(std::is_sorted(shard.links.begin(), shard.links.end()))
        << what << ": shard " << s;
    std::set<graph::LinkId> expected;
    for (graph::PathId p : shard.paths) {
      for (graph::LinkId e : paths[p].links()) expected.insert(e);
    }
    EXPECT_EQ(std::vector<graph::LinkId>(expected.begin(), expected.end()),
              shard.links)
        << what << ": shard " << s;
  }
  for (std::size_t p = 0; p < paths.size(); ++p) {
    EXPECT_NE(owner[p], SIZE_MAX) << what << ": path " << p << " unassigned";
  }
  // shards_of_link inverts the shard link lists; shared_links counts the
  // multiply-covered ones.
  ASSERT_EQ(plan.shards_of_link.size(), link_count) << what;
  std::size_t shared = 0;
  for (graph::LinkId e = 0; e < link_count; ++e) {
    const auto& owners = plan.shards_of_link[e];
    ASSERT_TRUE(std::is_sorted(owners.begin(), owners.end())) << what;
    for (std::size_t s : owners) {
      ASSERT_LT(s, plan.shards.size()) << what;
      EXPECT_TRUE(std::binary_search(plan.shards[s].links.begin(),
                                     plan.shards[s].links.end(), e))
          << what << ": link " << e << " not in shard " << s;
    }
    if (owners.size() > 1) ++shared;
  }
  EXPECT_EQ(plan.shared_links, shared) << what;
}

void check_result_invariants(const ShardedInferenceResult& result,
                             std::size_t link_count,
                             const std::string& what) {
  ASSERT_EQ(result.congestion_prob.size(), link_count) << what;
  ASSERT_EQ(result.log_good.size(), link_count) << what;
  ASSERT_EQ(result.shard_of.size(), link_count) << what;
  ASSERT_EQ(result.reconciled.size(), link_count) << what;
  ASSERT_EQ(result.residual_gap.size(), link_count) << what;
  for (graph::LinkId e = 0; e < link_count; ++e) {
    EXPECT_GE(result.congestion_prob[e], 0.0) << what << ": link " << e;
    EXPECT_LE(result.congestion_prob[e], 1.0) << what << ": link " << e;
    EXPECT_LE(result.log_good[e], 0.0) << what << ": link " << e;
    const auto& owners = result.plan.shards_of_link[e];
    if (!owners.empty()) {
      EXPECT_EQ(result.shard_of[e], owners.front()) << what;
    }
    EXPECT_EQ(result.reconciled[e] != 0, owners.size() > 1) << what;
    if (owners.size() <= 1) {
      EXPECT_EQ(result.residual_gap[e], 0.0) << what << ": link " << e;
    } else {
      EXPECT_GE(result.residual_gap[e], 0.0) << what << ": link " << e;
    }
  }
  // Every shared link is settled exactly once, by averaging or re-solve.
  EXPECT_EQ(result.averaged_links + result.resolved_links,
            result.plan.shared_links)
      << what;
}

class RegistryShardedDifferential
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryShardedDifferential, UnboundedPlanMatchesMonolithic) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x5a4d;
  const PreparedScenario p = prepare(config, 0x5a4d00);
  const InferenceOptions inference = unbudgeted_inference();

  const sim::EmpiricalMeasurement measurement(p.block);
  const InferenceResult mono =
      infer_congestion(p.inst.graph, p.inst.paths, p.coverage,
                       p.inst.declared_sets, measurement, inference);

  ShardedOptions options;
  options.max_shard_paths = 0;  // unbounded: link-disjoint components
  options.inference = inference;
  const ShardedInferenceResult sharded =
      infer_sharded(p.inst.graph, p.inst.paths, p.coverage,
                    p.inst.declared_sets, p.block, options);

  check_plan_invariants(sharded.plan, p.inst.paths,
                        p.inst.graph.link_count(), GetParam());
  check_result_invariants(sharded, p.inst.graph.link_count(), GetParam());
  EXPECT_EQ(sharded.plan.shared_links, 0u)
      << GetParam() << ": unbounded plans are link-disjoint";

  if (sharded.plan.shards.size() == 1) {
    // Provenance stays split on one-shard plans too: the result names the
    // hoisted structural refinement, the shard its own fallback rounds.
    const std::vector<graph::LinkId> structural =
        corr::structurally_unidentifiable_links(
            p.inst.graph, p.inst.paths, p.inst.declared_sets);
    EXPECT_EQ(sharded.refined_links, structural) << GetParam();
    ASSERT_EQ(sharded.shards.size(), 1u);
    ASSERT_GE(mono.refined_links.size(), structural.size()) << GetParam();
    EXPECT_EQ(sharded.shards[0].refined_links,
              mono.refined_links.size() - structural.size())
        << GetParam();
  }

  ASSERT_EQ(sharded.congestion_prob.size(), mono.congestion_prob.size());
  for (graph::LinkId e = 0; e < mono.congestion_prob.size(); ++e) {
    if (sharded.plan.shards.size() == 1) {
      // One shard holds the whole system, so the general pipeline must
      // reproduce the monolithic call bit for bit.
      EXPECT_EQ(sharded.congestion_prob[e], mono.congestion_prob[e])
          << GetParam() << ": link " << e;
      EXPECT_EQ(sharded.log_good[e], mono.log_good[e])
          << GetParam() << ": link " << e;
    } else {
      EXPECT_NEAR(sharded.congestion_prob[e], mono.congestion_prob[e], 1e-8)
          << GetParam() << ": link " << e << " of "
          << sharded.plan.shards.size() << " shards";
    }
  }
}

TEST_P(RegistryShardedDifferential, CappedPlanIsBitIdenticalAcrossJobs) {
  ScenarioConfig config =
      shrink_for_tests(ScenarioCatalog::instance().at(GetParam()).config);
  config.seed = 0x5a4e;
  const PreparedScenario p = prepare(config, 0x5a4e00);

  ShardedOptions options;
  // Small cap: force several shards (and usually shared links) even at
  // shrink scale, so the parallel fan-out has real work to disagree on.
  options.max_shard_paths = 12;
  options.inference = unbudgeted_inference();

  options.jobs = 1;
  const ShardedInferenceResult a =
      infer_sharded(p.inst.graph, p.inst.paths, p.coverage,
                    p.inst.declared_sets, p.block, options);
  options.jobs = 3;
  const ShardedInferenceResult b =
      infer_sharded(p.inst.graph, p.inst.paths, p.coverage,
                    p.inst.declared_sets, p.block, options);

  check_plan_invariants(a.plan, p.inst.paths, p.inst.graph.link_count(),
                        GetParam());
  check_result_invariants(a, p.inst.graph.link_count(), GetParam());
  ASSERT_EQ(a.plan.shards.size(), b.plan.shards.size());
  EXPECT_EQ(a.averaged_links, b.averaged_links);
  EXPECT_EQ(a.resolved_links, b.resolved_links);
  EXPECT_EQ(a.joint_solves, b.joint_solves);
  // Bitwise, not approximate: per-shard seeds and slot-indexed merges are
  // the determinism contract.
  ASSERT_EQ(a.log_good.size(), b.log_good.size());
  for (graph::LinkId e = 0; e < a.log_good.size(); ++e) {
    EXPECT_EQ(a.log_good[e], b.log_good[e]) << GetParam() << ": link " << e;
    EXPECT_EQ(a.congestion_prob[e], b.congestion_prob[e])
        << GetParam() << ": link " << e;
    EXPECT_EQ(a.residual_gap[e], b.residual_gap[e])
        << GetParam() << ": link " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryShardedDifferential,
    ::testing::ValuesIn(ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ShardedFast, PlanRespectsPathCapOnOversplitScenario) {
  ScenarioConfig config;
  config.topology = TopologyKind::kWaxman;
  config.vantage_points = 12;
  config.seed = 17;
  const PreparedScenario p = prepare(config, 18);
  const ShardPlan plan =
      plan_shards(p.inst.paths, p.coverage, p.inst.declared_sets, 20);
  check_plan_invariants(plan, p.inst.paths, p.inst.graph.link_count(),
                        "capped plan");
  EXPECT_GT(plan.shards.size(), 1u);
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    // A shard may exceed the cap only when a single vantage cluster does —
    // clusters are never split, so the bound is cap + largest cluster.
    EXPECT_LE(plan.shards[s].paths.size(), 20u + p.inst.paths.size())
        << "shard " << s;
  }
}

TEST(ShardedFast, SharedLinkReconciliationProperties) {
  ScenarioConfig config;
  config.topology = TopologyKind::kBarabasiAlbert;
  config.vantage_points = 10;
  config.seed = 23;
  const PreparedScenario p = prepare(config, 29);

  ShardedOptions options;
  options.max_shard_paths = 10;
  options.inference = unbudgeted_inference();
  const ShardedInferenceResult result =
      infer_sharded(p.inst.graph, p.inst.paths, p.coverage,
                    p.inst.declared_sets, p.block, options);
  check_plan_invariants(result.plan, p.inst.paths,
                        p.inst.graph.link_count(), "BA capped");
  check_result_invariants(result, p.inst.graph.link_count(), "BA capped");
  ASSERT_GT(result.plan.shards.size(), 1u);
  ASSERT_GT(result.plan.shared_links, 0u)
      << "the hub topology must produce shared links under a tight cap";
  // Agreement within tolerance is settled by averaging; only links whose
  // shard estimates spread past the tolerance enter joint re-solves.
  for (graph::LinkId e = 0; e < p.inst.graph.link_count(); ++e) {
    if (result.reconciled[e] &&
        result.residual_gap[e] <= kShardDisagreementTol) {
      EXPECT_GT(result.averaged_links, 0u);
      break;
    }
  }
  if (result.joint_solves > 0) {
    EXPECT_GT(result.resolved_links, 0u);
  } else {
    EXPECT_EQ(result.resolved_links, 0u);
  }
}

/// Synthesizes a traceroute dump: `sites` vantage hosts fully meshed over
/// chains of shared backbone routers, with AS assignments grouping each
/// backbone segment — the parse → shard → infer hand-off end to end.
std::string synthetic_dump(std::size_t sites, std::size_t backbone) {
  std::ostringstream os;
  os << "# synthetic mesh dump\n";
  for (std::size_t a = 0; a < sites; ++a) {
    for (std::size_t b = 0; b < sites; ++b) {
      if (a == b) continue;
      // Route: site a -> its gateway -> a backbone router -> b's gateway
      // -> site b. Gateways are per-site; backbone routers are shared.
      os << "trace s" << a << " gw" << a << " bb" << (a + b) % backbone
         << " gw" << b << " s" << b << "\r\n";
    }
  }
  for (std::size_t r = 0; r < backbone; ++r) {
    os << "asn bb" << r << " " << 100 + r % 7 << "\n";
  }
  for (std::size_t a = 0; a < sites; ++a) {
    os << "asn gw" << a << " " << 500 + a << "\n";
  }
  return os.str();
}

TEST(ShardedFast, TracerouteDumpRunsEndToEndSharded) {
  std::istringstream is(synthetic_dump(/*sites=*/14, /*backbone=*/9));
  const graph::MeasuredSystem system = topogen::parse_traceroutes(is);
  ASSERT_GT(system.paths.size(), 100u);
  const corr::CorrelationSets sets(system.graph.link_count(),
                                   system.partition);
  const graph::CoverageIndex coverage(system.graph, system.paths);

  // Ground truth: a third of the links congested, clustered shocks.
  Rng rng(0x7e57);
  std::vector<graph::LinkId> congested;
  std::vector<double> marginals;  // one entry per congested link
  for (graph::LinkId e = 0; e < system.graph.link_count(); ++e) {
    if (rng.bernoulli(0.3)) {
      congested.push_back(e);
      marginals.push_back(0.05 + 0.3 * rng.uniform());
    }
  }
  ASSERT_FALSE(congested.empty());
  const auto truth =
      corr::make_clustered_shock_model(sets, congested, marginals, 0.5);

  sim::SimulatorConfig sc;
  sc.snapshots = 300;
  sc.packets_per_path = 500;
  sc.seed = 0x7e5700;
  sim::SimulationResult sim_result =
      sim::simulate(system.graph, system.paths, *truth, sc);

  ShardedOptions options;
  options.max_shard_paths = 30;
  options.inference = unbudgeted_inference();
  const ShardedInferenceResult result =
      infer_sharded(system.graph, system.paths, coverage, sets,
                    sim_result.measurement, options);
  check_plan_invariants(result.plan, system.paths,
                        system.graph.link_count(), "traceroute dump");
  check_result_invariants(result, system.graph.link_count(),
                          "traceroute dump");
  EXPECT_GT(result.plan.shards.size(), 1u);

  // Sanity on quality: estimates must correlate with truth — mean error
  // over the truly congested links well below the mean marginal.
  double err = 0.0, level = 0.0;
  for (graph::LinkId e : congested) {
    err += std::abs(result.congestion_prob[e] - truth->marginal(e));
    level += truth->marginal(e);
  }
  EXPECT_LT(err, 0.5 * level);
}

}  // namespace
}  // namespace tomo::core
