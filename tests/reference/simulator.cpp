#include "reference/simulator.hpp"

#include <algorithm>
#include <cstdint>

#include "reference/observations.hpp"
#include "sim/block_fate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::reference {

namespace {

/// The historical single-stream loop behind the per-packet and exact
/// engines: one RNG advanced across all snapshots, one single-snapshot
/// model.sample_block per snapshot (so a bursty shock restarts its chain
/// every snapshot here; only its per-snapshot law carries over).
sim::SimulationResult simulate_single_stream(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config,
    bool exact) {
  TOMO_REQUIRE(model.link_count() == g.link_count(),
               "simulate: model link count does not match the graph");
  const sim::LossModel loss_model(config.tl);
  const std::vector<double> tp = sim::path_thresholds(loss_model, paths);
  Rng rng(config.seed);

  sim::SimulationResult result;
  result.snapshots = config.snapshots;
  result.link_congested_count.assign(g.link_count(), 0);
  PathObservations obs(paths.size(), config.snapshots);

  std::vector<double> loss(g.link_count(), 0.0);
  std::vector<std::uint8_t> state(g.link_count());
  for (std::size_t n = 0; n < config.snapshots; ++n) {
    model.sample_block(rng, 1, state.data());
    for (graph::LinkId k = 0; k < g.link_count(); ++k) {
      result.link_congested_count[k] += state[k];
    }
    if (exact) {
      for (std::size_t p = 0; p < paths.size(); ++p) {
        for (graph::LinkId k : paths[p].links()) {
          if (state[k]) {
            obs.set_congested(p, n);
            break;
          }
        }
      }
      continue;
    }
    for (graph::LinkId k = 0; k < g.link_count(); ++k) {
      loss[k] = loss_model.sample_loss_rate(rng, state[k] != 0);
    }
    for (std::size_t p = 0; p < paths.size(); ++p) {
      const std::size_t sent = config.packets_per_path;
      std::size_t delivered = 0;
      for (std::size_t packet = 0; packet < sent; ++packet) {
        bool alive = true;
        for (graph::LinkId k : paths[p].links()) {
          if (rng.bernoulli(loss[k])) {
            alive = false;
            break;
          }
        }
        delivered += alive ? 1 : 0;
      }
      const double measured_loss =
          1.0 - static_cast<double>(delivered) / static_cast<double>(sent);
      if (measured_loss > tp[p]) obs.set_congested(p, n);
    }
  }
  result.measurement = to_block(obs);
  return result;
}

}  // namespace

sim::SimulationResult simulate_batched_reference(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config) {
  const std::size_t links = g.link_count();
  const std::size_t blocks =
      (config.snapshots + sim::kBlockSnapshots - 1) / sim::kBlockSnapshots;
  const sim::LossModel loss_model(config.tl);
  const std::vector<double> tp = sim::path_thresholds(loss_model, paths);

  sim::SimulationResult result;
  result.snapshots = config.snapshots;
  result.link_congested_count.assign(links, 0);
  PathObservations obs(paths.size(), config.snapshots);

  const double packets = static_cast<double>(config.packets_per_path);
  std::vector<std::uint8_t> states;
  std::vector<double> loss(links);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t first = b * sim::kBlockSnapshots;
    const std::size_t count =
        std::min(sim::kBlockSnapshots, config.snapshots - first);
    Rng rng(mix_seed(config.seed, sim::kBlockSeedTag + b));
    states.assign(count * links, 0);
    model.sample_block(rng, count, states.data());
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t* state = states.data() + i * links;
      for (std::size_t k = 0; k < links; ++k) {
        result.link_congested_count[k] += state[k];
      }
      for (std::size_t k = 0; k < links; ++k) {
        loss[k] = loss_model.sample_loss_rate(rng, state[k] != 0);
      }
      for (std::size_t p = 0; p < paths.size(); ++p) {
        double survival = 1.0;
        for (graph::LinkId k : paths[p].links()) {
          survival *= 1.0 - loss[k];
        }
        const double threshold =
            sim::good_threshold(config.packets_per_path, tp[p]);
        bool good;
        const int fate = sim::classify_fate(packets, survival, threshold);
        if (fate != 0) {
          good = fate > 0;
        } else {
          const double delivered = static_cast<double>(
              rng.binomial(config.packets_per_path, survival));
          good = delivered >= threshold;
        }
        if (!good) obs.set_congested(p, first + i);
      }
    }
  }
  result.measurement = to_block(obs);
  return result;
}

sim::SimulationResult simulate_per_packet(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const corr::CongestionModel& model, const sim::SimulatorConfig& config) {
  return simulate_single_stream(g, paths, model, config, /*exact=*/false);
}

sim::SimulationResult simulate_exact(const graph::Graph& g,
                                     const std::vector<graph::Path>& paths,
                                     const corr::CongestionModel& model,
                                     const sim::SimulatorConfig& config) {
  return simulate_single_stream(g, paths, model, config, /*exact=*/true);
}

}  // namespace tomo::reference
