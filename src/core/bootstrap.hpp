// Bootstrap confidence intervals for inferred congestion probabilities.
//
// The paper reports point estimates; an operator acting on them (e.g.,
// confronting a peer about an SLA) needs to know how much snapshot noise
// they carry. This module resamples the snapshot axis with replacement,
// re-runs inference per replicate, and reports per-link percentile
// intervals. Stationarity (Assumption 3) is exactly the property that
// makes snapshot resampling sound; for bursty (Gilbert-type) congestion
// the i.i.d. bootstrap narrows intervals somewhat, which is the usual
// caveat and is documented here rather than hidden.
//
// The engine amortizes everything replicates share. Picks are gathered
// word-level into bit-packed MeasurementBlock columns, the equation
// harvest runs once on the point estimate, and each replicate that
// core::replay_harvest certifies (the same check the streaming driver
// runs per window) re-estimates only the right-hand sides and solves on
// a copy of the point solve's Gram system, which keeps G and the NNLS
// warm seed's factor whenever the rows are unchanged (unweighted); only a
// replicate whose support actually changes falls back to a full
// re-harvest. Every solver kind takes the same path. Replicates fan
// across parallel_for workers on per-replicate seed streams, so intervals
// are bit-identical for any `jobs`. The historical serial path — per-bit
// resample, full re-inference per replicate — is kept in tests/reference:
// at matched seeds this engine with warm_start off is bitwise equal to
// it; with warm_start on both reach the same optimum.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "sim/measurement.hpp"
#include "sim/measurement_block.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tomo::core {

/// Central mass of every bootstrap interval.
inline constexpr double kBootstrapConfidence = 0.90;

struct BootstrapOptions {
  /// Raised from the historical 30 now that replicates are ~free on the
  /// shared Gram skeleton.
  std::size_t replicates = 200;
  std::uint64_t seed = 1;
  /// Replicate fan-out width (1 = inline on the caller, 0 = all hardware
  /// cores). Intervals are bit-identical for any value.
  std::size_t jobs = 1;
  /// Warm-start every replicate's NNLS from the point estimate's active
  /// set (NNLS only). Off, every replicate is bitwise the cold
  /// infer_congestion of its resample.
  bool warm_start = true;
  InferenceOptions inference;
};

struct BootstrapResult {
  std::vector<double> point;  // estimate on the full sample
  std::vector<double> lower;  // per-link interval bounds
  std::vector<double> upper;
  /// Usable replicates actually backing the intervals.
  std::size_t replicates = 0;
  /// Replicates dropped because the resample lost every usable equation.
  /// Always surfaced (and warned about past 10%) — a silently shrunken
  /// sample used to masquerade as the requested replicate count.
  std::size_t skipped = 0;
  /// Replicates replay_harvest did not certify, forcing a full re-harvest
  /// instead of the replayed one. Includes the skipped ones.
  std::size_t reharvested = 0;
  /// Wall-clock seconds spent materializing replicate measurements
  /// (MeasurementBlock::resample), summed across workers — on a
  /// multi-worker run this exceeds the elapsed resample time.
  /// Telemetry only (reported in BENCH_*.json); never printed to stdout.
  double resample_seconds = 0.0;
};

/// The per-replicate seed stream: replicate r of a run with base `seed`
/// always draws from this rng, independent of the fan-out width — that is
/// what makes jobs-invariance and matched-seed comparison with the
/// reference possible.
Rng replicate_rng(std::uint64_t seed, std::size_t replicate);

/// Draws `snapshot_count` resample picks (with replacement, each below
/// `snapshot_count`): one rng.below(snapshot_count) per output snapshot.
std::vector<std::uint32_t> draw_picks(std::size_t snapshot_count, Rng& rng);

/// draw_picks into a caller-owned buffer (resized to `snapshot_count`):
/// replicate loops reuse one buffer instead of allocating per replicate.
void draw_picks_into(std::size_t snapshot_count, Rng& rng,
                     std::vector<std::uint32_t>& picks);

/// Full-pipeline bootstrap of the correlation algorithm.
BootstrapResult bootstrap_congestion(const graph::Graph& g,
                                     const std::vector<graph::Path>& paths,
                                     const graph::CoverageIndex& coverage,
                                     const corr::CorrelationSets& sets,
                                     const sim::MeasurementBlock& block,
                                     const BootstrapOptions& options = {});

/// Generic batched resample sweep for callers that bootstrap something
/// other than the correlation algorithm (fig1_tables' theorem-algorithm
/// alphas, ablation statistics): fans `replicates` word-level resamples of
/// `block` across up to `jobs` workers and applies `body` to each
/// replicate's measurement. Outcome r is std::nullopt when the body threw
/// tomo::Error (that replicate lost the data it needed) — callers count
/// those as skipped. Replicate r always draws from replicate_rng(seed, r),
/// so results are identical for any `jobs`.
template <typename Body>
auto resample_sweep(const sim::MeasurementBlock& block,
                    std::size_t replicates, std::uint64_t seed,
                    std::size_t jobs, Body&& body)
    -> std::vector<std::optional<std::decay_t<
        std::invoke_result_t<Body&, const sim::EmpiricalMeasurement&>>>> {
  using R = std::decay_t<
      std::invoke_result_t<Body&, const sim::EmpiricalMeasurement&>>;
  std::vector<std::optional<R>> out(replicates);
  util::parallel_for(jobs, replicates, [&](std::size_t r) {
    Rng rng = replicate_rng(seed, r);
    const std::vector<std::uint32_t> picks =
        draw_picks(block.snapshot_count, rng);
    const sim::EmpiricalMeasurement measurement(block.resample(picks));
    try {
      out[r] = body(measurement);
    } catch (const Error&) {
      // Replicate skipped; surfaced to the caller as nullopt.
    }
  });
  return out;
}

}  // namespace tomo::core
