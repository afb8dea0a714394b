#include "core/bootstrap.hpp"

#include <cstdio>
#include <future>
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
  const linalg::SparseSystemView point_view =
      sparse_view(harvest.system, weight_samples);
  const bool incremental =
      options.inference.solver.kind == linalg::SolverKind::kNnls;

  linalg::GramSystem skeleton;
  linalg::LogSystemSolution point_solution;
  if (incremental) {
    // accumulate_gram over the whole view is bitwise equal to the build
    // inside solve_log_system, so this point estimate is exactly
    // infer_congestion's.
    linalg::accumulate_gram(skeleton, point_view,
                            options.inference.solver.jobs);
    point_solution = linalg::solve_log_system(point_view, skeleton,
                                              options.inference.solver);
  } else {
    point_solution =
        linalg::solve_log_system(point_view, options.inference.solver);
  }
  InferenceResult point;
  apply_solution(point, std::move(point_solution));
  result.point = point.congestion_prob;

  // Per-replicate estimates, indexed by replicate (empty = skipped) so the
  // reduction below is independent of which worker produced what.
  std::vector<std::vector<double>> estimates(options.replicates);
  std::vector<std::uint8_t> fell_back(options.replicates, 0);

  InferenceOptions replicate_inference = options.inference;
  // Parallelism lives at the replicate level; inner jobs stay inline.
  replicate_inference.solver.jobs = 1;
  replicate_inference.equations.jobs = 1;
  // Fast-path solves share the skeleton's Gram matrix, so the warm
  // seed's Cholesky factor is measurement-independent: factor it once
  // here and let every replicate copy it (fast_solver). The fallback
  // path harvests its own system — different Gram — so it only gets the
  // plain warm_start list (re-admitted against its own matrix), and the
  // variance-weighted path rebuilds the Gram per replicate, which
  // invalidates the factor the same way.
  linalg::SolverOptions fast_solver = replicate_inference.solver;
  linalg::NnlsWarmFactor warm_factor;
  if (options.warm_start && incremental) {
    replicate_inference.solver.warm_start = point.active_set;
    fast_solver.warm_start = point.active_set;
    if (weight_samples == 0) {
      warm_factor = linalg::seed_warm_factor(skeleton, point.active_set);
      fast_solver.nnls_warm_factor = &warm_factor;
    }
  }

  const auto run_replicate = [&](std::size_t r, linalg::GramSystem& scratch,
                                 std::vector<double>& ys,
                                 sim::ResampleScratch& resample_scratch,
                                 std::vector<std::uint32_t>& picks,
                                 double& resample_seconds) {
    Rng rng = replicate_rng(options.seed, r);
    draw_picks_into(n, rng, picks);
    Stopwatch resample_watch;
    const sim::EmpiricalMeasurement measurement(
        block.resample(picks, resample_scratch));
    resample_seconds += resample_watch.seconds();
    // Gram-skeleton fast path. A resample only loses good snapshots, so
    // of replay_harvest's check only the usable half can fail, and its
    // blind spot (a pair dropped as dependent turning unusable) moves a
    // counter, never an equation: a certified replicate solves exactly the
    // system its re-harvest would.
    if (incremental && replay_harvest(harvest, measurement, ys)) {
      const linalg::SparseSystemView view =
          sparse_view(harvest.system, weight_samples, ys);
      linalg::LogSystemSolution solution;
      if (weight_samples == 0) {
        linalg::refresh_gram_rhs(scratch, view, fast_solver.jobs);
        solution = linalg::solve_log_system(view, scratch, fast_solver);
      } else {
        // Variance weights scale every row by its replicate estimate, so
        // the Gram matrix itself changes; rebuild it — the harvest skip
        // still amortizes the expensive part.
        linalg::GramSystem gs;
        linalg::accumulate_gram(gs, view, 1);
        solution =
            linalg::solve_log_system(view, gs, replicate_inference.solver);
      }
      InferenceResult replicate;
      apply_solution(replicate, std::move(solution));
      estimates[r] = std::move(replicate.congestion_prob);
      return;
    }
    // Support changed (or the solver has no Gram to share): a full
    // re-harvest.
    fell_back[r] = 1;
    try {
      estimates[r] = infer_congestion(g, paths, coverage, sets,
                                      measurement, replicate_inference)
                         .congestion_prob;
    } catch (const Error&) {
      // Replicate lost every usable equation; counted as skipped below.
    }
  };

  const auto run_stripe = [&](std::size_t first, std::size_t stride,
                              double& resample_seconds) {
    // One skeleton copy per worker: refresh_gram_rhs rewrites only the
    // rhs products in place, so G is shared by the whole stripe. The
    // resample scratch and pick buffer are likewise hoisted here — the
    // source transpose is built once per worker and every replicate in
    // the stripe reuses the same gather buffer, allocation-free after
    // the first replicate.
    linalg::GramSystem scratch = skeleton;
    std::vector<double> ys(harvest.system.equations.size());
    sim::ResampleScratch resample_scratch;
    std::vector<std::uint32_t> picks;
    for (std::size_t r = first; r < options.replicates; r += stride) {
      run_replicate(r, scratch, ys, resample_scratch, picks,
                    resample_seconds);
    }
  };

  const std::size_t workers =
      std::min(util::resolve_jobs(options.jobs), options.replicates);
  std::vector<double> stripe_resample_seconds(std::max<std::size_t>(
      workers, 1));
  if (workers <= 1) {
    run_stripe(0, 1, stripe_resample_seconds[0]);
  } else {
    util::ThreadPool pool(workers);
    std::vector<std::future<void>> done;
    done.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      done.push_back(pool.submit(
          [&, w] { run_stripe(w, workers, stripe_resample_seconds[w]); }));
    }
    for (auto& f : done) f.get();
  }
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
