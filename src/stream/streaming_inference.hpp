// The streaming/online inference driver — the batch algorithm, one
// arriving window at a time.
//
// Each push_window splices the window into the cumulative
// StreamingMeasurement, re-runs the *same* structure-determination code as
// the batch path (core::harvest_refined_system: Assumption-4 refinement,
// pair-equation harvest, §3.3 demotion rounds — always from the original
// declared sets, so window k's structure equals a batch run over the first
// k windows), and re-solves with two incremental accelerations:
//
//   - Gram reuse: when the harvested equation support is unchanged from
//     the previous window (the steady state once the structure stabilizes)
//     only the right-hand-side products are re-accumulated; G = AᵀA is
//     reused. When the support changed, G is rebuilt from scratch — in
//     either case bitwise what the batch build produces (additive,
//     row-ordered accumulation; see linalg::accumulate_gram).
//   - NNLS warm start: the solve is seeded from the previous window's
//     converged active set via the UpdatableCholesky-backed engine, so the
//     steady-state cost per window is a handful of O(k²) factor edits
//     instead of a cold active-set climb.
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
  /// Reuse the cached G = AᵀA when the harvested support is unchanged
  /// (unweighted solves only — variance weights change every row value).
  bool reuse_gram = true;
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
  bool gram_reused = false;
  bool warm_started = false;
  double seconds = 0.0;  // wall time of this window's append+harvest+solve
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
  bool incremental_solver() const;
  bool support_unchanged(const core::EquationSystem& system) const;
  void remember_support(const core::EquationSystem& system);

  const graph::Graph& graph_;
  const std::vector<graph::Path>& paths_;
  const corr::CorrelationSets declared_;
  const StreamingOptions options_;
  graph::CoverageIndex coverage_;
  StreamingMeasurement measurement_;

  // Inter-window caches (incremental NNLS only).
  linalg::GramSystem gram_;
  bool gram_valid_ = false;
  std::vector<std::vector<graph::LinkId>> gram_support_;
  std::vector<std::size_t> prev_active_;
};

}  // namespace tomo::stream
