// Microbenchmarks for the congestion simulator and measurement layer.
#include <benchmark/benchmark.h>

#include "core/scenario.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace tomo;

core::ScenarioInstance make_instance() {
  core::ScenarioConfig config;
  config.topology = core::TopologyKind::kBrite;
  config.as_nodes = 60;
  config.as_endpoints = 16;
  config.congested_fraction = 0.10;
  config.seed = 42;
  return core::build_scenario(config);
}

void BM_SimulateBatched(benchmark::State& state) {
  const auto inst = make_instance();
  sim::SimulatorConfig config;
  config.snapshots = static_cast<std::size_t>(state.range(0));
  config.packets_per_path = 500;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::simulate(inst.graph, inst.paths, *inst.truth, config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.snapshots));
}
BENCHMARK(BM_SimulateBatched)->Arg(100)->Arg(500)->Arg(2000);

void BM_PairGoodCounting(benchmark::State& state) {
  const auto inst = make_instance();
  sim::SimulatorConfig config;
  config.snapshots = 2000;
  auto result = sim::simulate(inst.graph, inst.paths, *inst.truth, config);
  const sim::EmpiricalMeasurement meas(std::move(result.measurement));
  const std::size_t paths = inst.paths.size();
  std::size_t i = 0, j = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(meas.pair_good_prob(i, j));
    j = (j + 1) % paths;
    if (j == i) j = (j + 1) % paths;
    i = (i + 7) % paths;
    if (i == j) i = (i + 1) % paths;
  }
}
BENCHMARK(BM_PairGoodCounting);

}  // namespace

BENCHMARK_MAIN();
