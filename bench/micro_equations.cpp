// Microbenchmark: equation building (the rank-guided candidate stream) and
// full inference on a mid-size scenario, plus the harvest on the
// registry's heaviest mesh entry (waxman-dense-vps, 1560 paths; ~20 ms
// where the pre-PR-4 implementation took ~300 ms on the same instance)
// and on hier-2k (~2.2k paths), where most pairs repeat the shared links
// of an earlier pair and skip the rank sweep; and the §3.3 harvest chain
// (refinement, demotion round, final harvest) on hier-2k.
#include <benchmark/benchmark.h>

#include "core/correlation_algorithm.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace tomo;

struct Prepared {
  core::ScenarioInstance inst;
  graph::CoverageIndex coverage;
  sim::SimulationResult sim_result;

  explicit Prepared(core::ScenarioInstance instance)
      : inst(std::move(instance)),
        coverage(inst.graph, inst.paths),
        sim_result(sim::simulate(inst.graph, inst.paths, *inst.truth,
                                 make_sim_config())) {}

  static sim::SimulatorConfig make_sim_config() {
    sim::SimulatorConfig config;
    config.snapshots = 1000;
    config.seed = 7;
    return config;
  }
};

Prepared& prepared() {
  static Prepared p = [] {
    core::ScenarioConfig config;
    config.topology = core::TopologyKind::kBrite;
    config.as_nodes = 60;
    config.as_endpoints = 16;
    config.congested_fraction = 0.10;
    config.seed = 21;
    return Prepared(core::build_scenario(config));
  }();
  return p;
}

void BM_BuildEquations(benchmark::State& state) {
  Prepared& p = prepared();
  const sim::EmpiricalMeasurement meas(p.sim_result.measurement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_equations(p.coverage, p.inst.declared_sets, meas));
  }
}
BENCHMARK(BM_BuildEquations);

void BM_FullInference(benchmark::State& state) {
  Prepared& p = prepared();
  const sim::EmpiricalMeasurement meas(p.sim_result.measurement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::infer_congestion(
        p.inst.graph, p.inst.paths, p.coverage, p.inst.declared_sets, meas));
  }
}
BENCHMARK(BM_FullInference);

Prepared& prepared_dense_vps() {
  static Prepared p = [] {
    core::ScenarioConfig config =
        core::ScenarioCatalog::instance().at("waxman-dense-vps").config;
    config.seed = 42;
    return Prepared(core::build_scenario(config));
  }();
  return p;
}

void BM_HarvestDenseVps(benchmark::State& state) {
  Prepared& p = prepared_dense_vps();
  const sim::EmpiricalMeasurement meas(p.sim_result.measurement);
  const auto singles =
      corr::CorrelationSets::singletons(p.coverage.link_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_equations(p.coverage, p.inst.declared_sets, meas));
    benchmark::DoNotOptimize(
        core::build_equations(p.coverage, singles, meas));
  }
}
BENCHMARK(BM_HarvestDenseVps)->Unit(benchmark::kMillisecond);

Prepared& prepared_hier2k() {
  static Prepared p = [] {
    core::ScenarioConfig config =
        core::ScenarioCatalog::instance().at("hier-2k").config;
    config.seed = 42;
    return Prepared(core::build_scenario(config));
  }();
  return p;
}

void BM_HarvestHier2k(benchmark::State& state) {
  Prepared& p = prepared_hier2k();
  const sim::EmpiricalMeasurement meas(p.sim_result.measurement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_equations(p.coverage, p.inst.declared_sets, meas));
  }
}
BENCHMARK(BM_HarvestHier2k)->Unit(benchmark::kMillisecond);

/// The whole §3.3 chain on hier-2k: structural refinement, the demotion
/// round (decided from single-path equations) and the final harvest.
void BM_HarvestChainHier2k(benchmark::State& state) {
  Prepared& p = prepared_hier2k();
  const sim::EmpiricalMeasurement meas(p.sim_result.measurement);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::harvest_refined_system(
        p.inst.graph, p.inst.paths, p.coverage, p.inst.declared_sets, meas,
        {}));
  }
}
BENCHMARK(BM_HarvestChainHier2k)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
