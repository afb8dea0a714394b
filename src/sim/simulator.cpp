#include "sim/simulator.hpp"

#include <algorithm>

#include "sim/block_fate.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace tomo::sim {

/// Blocks are the parallel unit: each derives its own RNG stream, samples
/// its snapshots' link states in one sample_block call, and writes one good
/// word per path — disjoint from every other block — so util::parallel_for
/// scheduling cannot affect the output.
SimulationResult simulate(const graph::Graph& g,
                          const std::vector<graph::Path>& paths,
                          const corr::CongestionModel& model,
                          const SimulatorConfig& config) {
  TOMO_REQUIRE(!paths.empty(), "simulate: no paths");
  TOMO_REQUIRE(model.link_count() == g.link_count(),
               "simulate: model link count does not match the graph");
  TOMO_REQUIRE(config.snapshots > 0, "simulate: need at least one snapshot");
  TOMO_REQUIRE(config.packets_per_path > 0,
               "simulate: need at least one packet per path");

  const std::size_t links = g.link_count();
  const std::size_t blocks =
      (config.snapshots + kBlockSnapshots - 1) / kBlockSnapshots;

  LossModel loss_model(config.tl);
  const std::vector<double> tp = path_thresholds(loss_model, paths);
  std::vector<double> threshold(paths.size());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    threshold[p] = good_threshold(config.packets_per_path, tp[p]);
  }

  // Flatten path->links into CSR so the survival product walks one
  // contiguous array instead of chasing per-path vectors.
  std::vector<std::size_t> offsets(paths.size() + 1, 0);
  for (std::size_t p = 0; p < paths.size(); ++p) {
    offsets[p + 1] = offsets[p] + paths[p].links().size();
  }
  std::vector<graph::LinkId> path_links(offsets.back());
  for (std::size_t p = 0; p < paths.size(); ++p) {
    std::copy(paths[p].links().begin(), paths[p].links().end(),
              path_links.begin() + offsets[p]);
  }

  SimulationResult result;
  result.snapshots = config.snapshots;
  result.link_congested_count.assign(links, 0);
  result.measurement.path_count = paths.size();
  result.measurement.snapshot_count = config.snapshots;
  result.measurement.good_bits.assign(
      paths.size() * result.measurement.words_per_path(), 0);

  // Per-block link congestion tallies, merged serially in block order after
  // the fan-out (jobs-invariant by construction; see SimulationResult).
  std::vector<std::uint32_t> block_counts(blocks * links, 0);

  const double packets = static_cast<double>(config.packets_per_path);
  util::parallel_for(config.jobs, blocks, [&](std::size_t b) {
    const std::size_t first = b * kBlockSnapshots;
    const std::size_t count =
        std::min(kBlockSnapshots, config.snapshots - first);
    Rng rng(mix_seed(config.seed, kBlockSeedTag + b));

    std::vector<std::uint8_t> states(count * links);
    model.sample_block(rng, count, states.data());

    std::vector<double> keep(links);  // 1 - loss per link
    std::vector<std::uint64_t> good_words(paths.size(), 0);
    std::uint32_t* counts = block_counts.data() + b * links;

    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t* state = states.data() + i * links;
      for (std::size_t k = 0; k < links; ++k) {
        counts[k] += state[k];
      }
      for (std::size_t k = 0; k < links; ++k) {
        keep[k] = 1.0 - loss_model.sample_loss_rate(rng, state[k] != 0);
      }
      for (std::size_t p = 0; p < paths.size(); ++p) {
        double survival = 1.0;
        for (std::size_t idx = offsets[p]; idx < offsets[p + 1]; ++idx) {
          survival *= keep[path_links[idx]];
        }
        bool good;
        const int fate = classify_fate(packets, survival, threshold[p]);
        if (fate != 0) {
          good = fate > 0;
        } else {
          const double delivered = static_cast<double>(
              rng.binomial(config.packets_per_path, survival));
          good = delivered >= threshold[p];
        }
        if (good) {
          good_words[p] |= std::uint64_t{1} << i;
        }
      }
    }
    for (std::size_t p = 0; p < paths.size(); ++p) {
      result.measurement.good_row(p)[b] = good_words[p];
    }
  });

  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint32_t* counts = block_counts.data() + b * links;
    for (std::size_t k = 0; k < links; ++k) {
      result.link_congested_count[k] += counts[k];
    }
  }
  result.measurement.recount();
  return result;
}

}  // namespace tomo::sim
