// The streaming/online inference driver — the batch algorithm, one
// arriving window at a time.
//
// Each push_window splices the window into the cumulative
// StreamingMeasurement and re-estimates over every snapshot so far with
// three incremental accelerations:
//
//   - Harvest replay: the refine→harvest→demote chain
//     (core::harvest_refined_system, always from the original declared
//     sets) reads the measurements only through which candidates the
//     demotion round and the final build find usable and through the
//     final equations' y values. The driver keeps the last harvest and
//     checks it against the grown measurement with core::replay_harvest
//     (the bootstrap runs the same check per replicate): when every
//     candidate it recorded as unusable is still unusable, the window
//     keeps its equations, order, counters and refined links and
//     re-estimates only the y values. Otherwise, and always for the first
//     window, it runs the full harvest and keeps that. A streamed prefix
//     only gains good snapshots, so a usable candidate never turns
//     unusable; the check therefore covers every candidate the chain
//     tried, and a replayed window is bitwise the re-harvest — window k's
//     system equals a batch harvest over the first k windows either way.
//   - Gram reuse: every window solves on one kept linalg::GramSystem,
//     which keeps G = AᵀA and recomputes only the right-hand-side products
//     when the window's rows are bitwise those G was built from (always
//     after an unweighted replay; variance weights change the row values)
//     and rebuilds it otherwise (linalg::accumulate_gram). Either way it
//     is bitwise what the batch solve builds: every entry is summed in
//     ascending row order. The row-oriented solver kinds leave it alone.
//   - NNLS warm start: the solve is seeded from the previous window's
//     converged active set via the UpdatableCholesky-backed engine, so the
//     steady-state cost per window is a handful of O(k²) factor edits
//     instead of a cold active-set climb. The other kinds report no active
//     set, so their windows are never warm-started.
//
// Convergence contract: the estimate after window k equals a one-shot
// batch infer_congestion over the same snapshots — identical equation
// system and Gram bits, same NNLS optimum. A cold solve is bit-identical to
// batch. A warm-started one reaches the same fitted values A·x to solver
// tolerance, and the same active set and solution whenever the optimum is
// unique; on a rank-deficient face (twin columns the union of both
// supports cannot separate) it may stop at a different, equally optimal
// vertex. Output is bit-identical for any jobs value.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "graph/coverage.hpp"
#include "stream/streaming_measurement.hpp"

namespace tomo::stream {

struct StreamingOptions {
  /// Shared with the batch path (solver, harvest, refinement knobs).
  core::InferenceOptions inference;
  /// Seed each window's NNLS from the previous window's converged active
  /// set (NNLS only; the first window is always cold).
  bool warm_start = true;
};

struct WindowEstimate {
  std::size_t window = 0;     // 0-based arrival index
  std::size_t snapshots = 0;  // cumulative snapshots ingested
  /// False while the measurements admit no usable equation yet (possible
  /// in the first windows of a heavily congested trace); `inference` is
  /// then empty and the next window retries from scratch.
  bool usable = false;
  /// The estimate over *all* snapshots so far (same fields as the batch
  /// result, including the solved system diagnostics).
  core::InferenceResult inference;
  /// The window replayed the previous window's harvest (only the y values
  /// re-estimated) instead of re-harvesting; see core::replay_harvest.
  bool harvest_replayed = false;
  /// The solve kept the previous window's G (LogSystemSolution::gram_reused).
  bool gram_reused = false;
  /// The NNLS started from the previous window's active set.
  bool warm_started = false;
  double seconds = 0.0;  // wall time of append + harvest/replay + solve
};

class StreamingInference {
 public:
  /// `g` and `paths` must outlive the driver (as with CoverageIndex).
  StreamingInference(const graph::Graph& g,
                     const std::vector<graph::Path>& paths,
                     const corr::CorrelationSets& declared,
                     StreamingOptions options = {});

  /// Ingests one window and re-estimates over everything seen so far.
  WindowEstimate push_window(const sim::MeasurementBlock& window);

  const StreamingMeasurement& measurement() const { return measurement_; }
  std::size_t window_count() const { return measurement_.window_count(); }

 private:
  const graph::Graph& graph_;
  const std::vector<graph::Path>& paths_;
  const corr::CorrelationSets declared_;
  const StreamingOptions options_;
  graph::CoverageIndex coverage_;
  StreamingMeasurement measurement_;

  // The last window's harvest (empty before the first window) and the
  // replay's right-hand-side buffer.
  std::optional<core::RefinedHarvest> kept_;
  std::vector<double> ys_;

  // The Gram system every window solves on (it keeps G while the rows
  // stay the same) and the last solve's active set (the warm start).
  linalg::GramSystem gram_;
  std::vector<std::size_t> prev_active_;
};

}  // namespace tomo::stream
