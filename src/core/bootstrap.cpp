#include "core/bootstrap.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/stats.hpp"
#include "util/stopwatch.hpp"

namespace tomo::core {
namespace {

/// Seed-stream tag; replicate_rng(seed, r) = Rng(mix_seed(seed, tag + r)).
constexpr std::uint64_t kReplicateTag = 0xb007ULL;

}  // namespace

Rng replicate_rng(std::uint64_t seed, std::size_t replicate) {
  return Rng(mix_seed(seed, kReplicateTag + replicate));
}

std::vector<std::uint32_t> draw_picks(std::size_t snapshot_count, Rng& rng) {
  std::vector<std::uint32_t> picks;
  draw_picks_into(snapshot_count, rng, picks);
  return picks;
}

void draw_picks_into(std::size_t snapshot_count, Rng& rng,
                     std::vector<std::uint32_t>& picks) {
  picks.resize(snapshot_count);
  for (std::size_t i = 0; i < snapshot_count; ++i) {
    picks[i] = static_cast<std::uint32_t>(rng.below(snapshot_count));
  }
}

BootstrapResult bootstrap_congestion(const graph::Graph& g,
                                     const std::vector<graph::Path>& paths,
                                     const graph::CoverageIndex& coverage,
                                     const corr::CorrelationSets& sets,
                                     const sim::MeasurementBlock& block,
                                     const BootstrapOptions& options) {
  TOMO_REQUIRE(options.replicates >= 2, "bootstrap needs >= 2 replicates");
  TOMO_REQUIRE(!block.empty(), "bootstrap needs a non-empty measurement");

  const std::size_t links = g.link_count();
  const std::size_t n = block.snapshot_count;
  BootstrapResult result;

  // Point estimate — run the structure phase once and keep the harvest:
  // its equation supports (and the Gram products built from them) are
  // reused across every replicate whose support survives.
  const sim::EmpiricalMeasurement full{sim::MeasurementBlock(block)};
  const RefinedHarvest harvest = harvest_refined_system(
      g, paths, coverage, sets, full, options.inference);
  TOMO_REQUIRE(!harvest.system.equations.empty(),
               "no usable equations: the measurements never observed a "
               "usable good path");
  const std::size_t weight_samples =
      options.inference.weight_by_variance ? full.sample_count() : 0;

  // The point solve builds the Gram skeleton every replicate starts from;
  // it is bitwise the solve inside infer_congestion.
  const linalg::SparseSystemView point_view =
      sparse_view(harvest.system, weight_samples);
  linalg::GramSystem skeleton;
  InferenceResult point;
  apply_solution(point, linalg::solve_log_system(point_view, skeleton,
                                                 options.inference.solver));
  result.point = point.congestion_prob;

  // Per-replicate estimates, indexed by replicate (empty = skipped) so the
  // reduction below is independent of which worker produced what.
  std::vector<std::vector<double>> estimates(options.replicates);
  std::vector<std::uint8_t> fell_back(options.replicates, 0);

  InferenceOptions replicate_inference = options.inference;
  // Parallelism lives at the replicate level; the Gram build stays inline.
  replicate_inference.solver.jobs = 1;
  if (options.warm_start) {
    replicate_inference.solver.warm_start = point.active_set;
  }
  const linalg::SolverOptions& solver = replicate_inference.solver;

  // Workers stripe the replicates statically. Each stripe solves on its
  // own copy of the skeleton, seeded with the warm start once (after the
  // copy, so no factor is held twice): a replicate with the rows G was
  // built from keeps G and the seeded factor (see linalg::accumulate_gram),
  // so the stripe shares both. The resample scratch and pick buffer are
  // likewise per stripe — the source transpose is built once and every
  // replicate reuses the same gather buffer.
  const std::size_t workers =
      std::min(util::resolve_jobs(options.jobs), options.replicates);
  std::vector<double> stripe_resample_seconds(workers, 0.0);
  util::parallel_for(workers, workers, [&](std::size_t stripe) {
    linalg::GramSystem gram = skeleton;
    linalg::seed_warm_factor(gram, solver.warm_start);
    std::vector<double> ys(harvest.system.equations.size());
    sim::ResampleScratch resample_scratch;
    std::vector<std::uint32_t> picks;
    for (std::size_t r = stripe; r < options.replicates; r += workers) {
      Rng rng = replicate_rng(options.seed, r);
      draw_picks_into(n, rng, picks);
      Stopwatch resample_watch;
      const sim::EmpiricalMeasurement measurement(
          block.resample(picks, resample_scratch));
      stripe_resample_seconds[stripe] += resample_watch.seconds();
      // A resample only loses good snapshots, so of replay_harvest's check
      // only the usable half can fail, and its blind spot (a pair dropped
      // as dependent turning unusable) moves a counter, never an equation:
      // a certified replicate solves exactly the system its re-harvest
      // would.
      if (replay_harvest(harvest, measurement, ys)) {
        const linalg::SparseSystemView view =
            sparse_view(harvest.system, weight_samples, ys);
        InferenceResult replicate;
        apply_solution(replicate, linalg::solve_log_system(view, gram, solver));
        estimates[r] = std::move(replicate.congestion_prob);
        continue;
      }
      // Support changed: a full re-harvest.
      fell_back[r] = 1;
      try {
        estimates[r] = infer_congestion(g, paths, coverage, sets,
                                        measurement, replicate_inference)
                           .congestion_prob;
      } catch (const Error&) {
        // Replicate lost every usable equation; counted as skipped below.
      }
    }
  });
  for (const double s : stripe_resample_seconds) {
    result.resample_seconds += s;
  }

  // Reduction in replicate order — worker-count independent by design.
  std::vector<std::vector<double>> samples(links);
  for (std::size_t r = 0; r < options.replicates; ++r) {
    if (fell_back[r]) ++result.reharvested;
    if (estimates[r].empty()) {
      ++result.skipped;
      continue;
    }
    for (graph::LinkId e = 0; e < links; ++e) {
      samples[e].push_back(estimates[r][e]);
    }
    ++result.replicates;
  }
  TOMO_REQUIRE(result.replicates >= 2,
               "bootstrap: too few usable replicates");
  if (result.skipped * 10 > options.replicates) {
    std::fprintf(stderr,
                 "[bootstrap] warning: %zu of %zu replicates lost all "
                 "usable equations and were dropped; intervals rest on "
                 "%zu replicates\n",
                 result.skipped, options.replicates, result.replicates);
  }

  const double tail = (1.0 - kBootstrapConfidence) / 2.0;
  result.lower.resize(links);
  result.upper.resize(links);
  for (graph::LinkId e = 0; e < links; ++e) {
    const Interval interval =
        percentile_pair(samples[e], 100.0 * tail, 100.0 * (1.0 - tail));
    result.lower[e] = interval.lo;
    result.upper[e] = interval.hi;
  }
  return result;
}

}  // namespace tomo::core
