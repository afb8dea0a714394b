// The paper's practical algorithm (§4): infer per-link congestion
// probabilities from end-to-end measurements in the presence of correlated
// links, with computation polynomial in the number of links.
#pragma once

#include <string>
#include <vector>

#include "core/equations.hpp"
#include "linalg/solvers.hpp"

namespace tomo::core {

struct InferenceOptions {
  /// End-to-end solver configuration — kind, Gram-build jobs, tolerances,
  /// warm start — threaded down to linalg::solve_log_system. The solve
  /// runs on the equation system's sparse view: for NNLS the dense
  /// incidence matrix is never materialized.
  linalg::SolverOptions solver;
  EquationBuildOptions equations;
  /// Apply the paper's §3.3 fallback: links flagged unidentifiable by the
  /// structural Assumption-4 check are treated as uncorrelated (moved to
  /// singleton sets) before equations are formed.
  bool refine_unidentifiable = true;
  /// Second stage of the same fallback: links that end up in *no* usable
  /// equation (every path through them also crosses a same-set link) are
  /// effectively unidentifiable under the declared structure; treat them
  /// as uncorrelated and rebuild, so the previously correlated paths
  /// become usable. Their own estimates inherit the independence
  /// algorithm's bias, but every other link keeps its clean equations —
  /// exactly the trade-off the paper describes.
  bool demote_uncovered = true;
  std::size_t max_demotion_rounds = 3;
  /// Weight each equation by the inverse standard deviation of its
  /// estimate (delta method) before solving, so thinly supported
  /// measurements count less. No effect with oracle measurements.
  bool weight_by_variance = false;
};

struct InferenceResult {
  std::vector<double> congestion_prob;  // P(X_k = 1) per link
  std::vector<double> log_good;         // x_k = log P(X_k = 0)
  EquationSystem system;                // the solved system (diagnostics)
  std::string solver_detail;
  /// Converged NNLS support (links with non-zero estimate), sorted; empty
  /// for the other solver kinds. The streaming driver feeds it back as the
  /// next window's warm start.
  std::vector<std::size_t> active_set;
  /// Wall seconds spent inside the solver (telemetry; never printed on
  /// stdout — the *_solve_seconds JSON mirror of system.build_seconds).
  double solve_seconds = 0.0;
  std::vector<graph::LinkId> refined_links;  // demoted to singletons
};

/// The structure-determination phase of the correlation algorithm,
/// factored out so the batch and streaming drivers run literally the same
/// code: Assumption-4 refinement, the pair-equation harvest, and the §3.3
/// demotion rounds.
struct RefinedHarvest {
  EquationSystem system;  // harvest under the refined structure
  std::vector<graph::LinkId> refined_links;  // demoted to singletons
  /// Path sets of the intermediate demotion rounds' equations (harvests a
  /// later round replaced). Everything else in the refine→harvest→demote
  /// chain is measurement-independent, so a caller re-running the chain on
  /// a *weaker* measurement (the bootstrap's resamples: good snapshots can
  /// only be lost, never invented) replays it identically iff these path
  /// sets and the final system's equations all stay usable — the batched
  /// bootstrap's support-stability certificate.
  std::vector<std::vector<graph::PathId>> witness_paths;
};

/// Runs refinement + harvest + demotion on the measurements seen so far.
/// Unlike infer_congestion this may return an *empty* system — the
/// streaming warm-up case where no usable good path has been observed yet;
/// batch callers reject that downstream.
RefinedHarvest harvest_refined_system(
    const graph::Graph& g, const std::vector<graph::Path>& paths,
    const graph::CoverageIndex& coverage, const corr::CorrelationSets& sets,
    const sim::MeasurementProvider& measurement,
    const InferenceOptions& options);

/// Converts a solved log-domain system into the probability-domain fields
/// of an InferenceResult (log_good, clamped congestion_prob, active set,
/// solver detail). Shared by the batch and streaming drivers.
void apply_solution(InferenceResult& result,
                    linalg::LogSystemSolution solution);

/// The correlation algorithm. `sets` is the operator's declared correlation
/// structure; measurements come from `measurement`.
InferenceResult infer_congestion(const graph::Graph& g,
                                 const std::vector<graph::Path>& paths,
                                 const graph::CoverageIndex& coverage,
                                 const corr::CorrelationSets& sets,
                                 const sim::MeasurementProvider& measurement,
                                 const InferenceOptions& options = {});

/// Moves every link in `links` out of its correlation set into a singleton
/// set (empty source sets disappear). Exposed for tests and scenarios.
corr::CorrelationSets demote_to_singletons(
    const corr::CorrelationSets& sets,
    const std::vector<graph::LinkId>& links);

}  // namespace tomo::core
