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
  /// End-to-end solver configuration — kind, Gram-build jobs, warm
  /// start — threaded down to linalg::solve_log_system. The solve
  /// runs on the equation system's sparse view: for NNLS the dense
  /// incidence matrix is never materialized.
  linalg::SolverOptions solver;
  EquationBuildOptions equations;
  /// Apply the paper's §3.3 fallback: links flagged unidentifiable by the
  /// structural Assumption-4 check are treated as uncorrelated (moved to
  /// singleton sets) before equations are formed. The fallback's second
  /// stage, demoting links no usable equation covers, always runs.
  bool refine_unidentifiable = true;
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
  /// The chain's RefinedHarvest::refined_links (see there).
  std::vector<graph::LinkId> refined_links;
};

/// The structure-determination phase of the correlation algorithm,
/// factored out so the batch and streaming drivers run literally the same
/// code: Assumption-4 refinement, the §3.3 demotion round, and the
/// equation harvest. The demotion round is decided from the single-path
/// equations alone (a pair equation's links are the union of two usable
/// singles' links, so pairs cover nothing new), and pairs are harvested
/// once, on the final structure. One round is all there is: a demotion
/// only splits sets, so every link it leaves covered stays covered and
/// every link it demotes is then alone in its set. Everything in that
/// chain is measurement-independent except which candidates the round and
/// the final build find usable, and the final equations' y values; the two
/// records below pin that usability for replay_harvest.
struct RefinedHarvest {
  EquationSystem system;  // harvest under the refined structure
  /// The structural Assumption-4 links (with refinement on), then every
  /// link the demotion round found uncovered, each moved to a singleton
  /// set. The round lists all uncovered links, including links that were
  /// already alone in their set; it fires only when one of them was not.
  std::vector<graph::LinkId> refined_links;
  /// The demotion round's single-path equations, as candidates {p, p} in
  /// path order; empty when no round fired. The final build replaced them.
  std::vector<CandidatePaths> witness_paths;
  /// Every candidate the chain tried and found unusable, in candidate
  /// order: the demotion round's singles (when the round fired), then the
  /// final build's singles and pairs. A single both builds tried appears
  /// once per build.
  std::vector<CandidatePaths> unusable;
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

/// Checks a kept harvest against another measurement: true iff every
/// candidate `kept.unusable` records is still unusable there, and every
/// witness single and final-system equation is still usable. It then
/// fills ys[i] with equation i's y over `measurement`, formed by
/// candidate_estimate as build_equations forms it (`ys` is resized; its
/// contents are unspecified on false).
///
/// Re-running the chain on a measurement where every candidate it tried
/// keeps its usability rebuilds `kept` exactly — equations, order,
/// counters and refined links — with only the y values new. The check
/// covers every tried candidate except the usable pairs the final build
/// dropped as linearly dependent (every usable single is a final equation
/// or a witness, and the demotion round tries no pair). Such a pair
/// turning unusable, which a bootstrap resample can cause but a grown
/// stream prefix cannot, moves a dropped_* counter but never an equation.
bool replay_harvest(const RefinedHarvest& kept,
                    const sim::MeasurementProvider& measurement,
                    std::vector<double>& ys);

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
