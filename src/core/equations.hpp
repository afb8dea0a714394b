// The §4 equation builder.
//
// In the log domain, a "correlation-free" set of links (no two links from
// the same correlation set) factorizes: log P(all good) = Σ_k x_k. The
// builder therefore harvests two candidate families:
//   singles — paths whose links are correlation-free (Eq. 9), and
//   pairs   — path pairs whose *union* of links is correlation-free
//             (Eq. 10); only intersecting pairs can add rank, since the
//             union row of two disjoint basis rows is their sum.
// Candidates stream through an incremental rank tracker; only rank-
// increasing equations with usable measurements (non-zero empirical
// probability) are kept. The result is N1 + N2 <= |E| independent
// equations, exactly the system the paper solves.
//
// The pair harvest is the hot path at dense-mesh scale and is built as a
// streaming generator: per-link candidate emission deduplicated by
// lowest-touch-link ownership (no global seen-set), an exact
// correlation-set-signature precheck (PairPrecheck) that decides
// correlation_free(union) without materializing the union, and batched
// candidate evaluation fanned across a worker pool with a deterministic
// candidate-order merge — the accepted system is byte-identical to a
// sequential build for any jobs value, which the differential suite
// (test_equations_fast) enforces against the scalar reference measurement.
#pragma once

#include <cstdint>
#include <vector>

#include "corr/correlation.hpp"
#include "graph/coverage.hpp"
#include "linalg/solvers.hpp"
#include "sim/measurement.hpp"

namespace tomo::core {

struct Equation {
  std::vector<graph::LinkId> links;  // sorted union, the 0/1 row support
  std::vector<graph::PathId> paths;  // 1 (single) or 2 (pair)
  double y;                          // log P(all paths good)
};

struct EquationSystem {
  std::vector<Equation> equations;  // the harvest's sparse product
  std::size_t link_count = 0;
  std::size_t n1 = 0;             // accepted single-path equations
  std::size_t n2 = 0;             // accepted pair equations
  std::size_t rank = 0;           // == n1 + n2
  std::size_t dropped_correlated = 0;  // candidates with correlated links
  std::size_t dropped_unusable = 0;    // zero/low empirical probability
  std::size_t dropped_dependent = 0;   // linearly dependent candidates
  std::size_t pair_candidates_tried = 0;
  /// Wall seconds spent inside build_equations (harvest telemetry; not a
  /// metric — never printed on stdout).
  double build_seconds = 0.0;

  bool full_rank() const { return rank == link_count; }
};

struct EquationBuildOptions {
  bool use_pairs = true;
  /// Upper bound on pair candidates examined (each may cost an elimination
  /// sweep); 0 means no bound.
  std::size_t max_pair_candidates = 0;
  /// Minimum good-snapshot support for an empirical estimate to be usable.
  std::size_t min_good_snapshots = 1;
  /// Shuffles the pair-candidate order (deterministic); spreads accepted
  /// pairs across the topology instead of clustering near low link ids.
  std::uint64_t shuffle_seed = 7;
  /// When true (default), every usable equation the correlation structure
  /// admits is kept, including linearly dependent ones — the solver then
  /// fits all available measurements (what [12] effectively does). When
  /// false, only rank-increasing equations are kept: the minimal
  /// N1 + N2 <= |E| system of the paper's §4 presentation.
  bool include_redundant = true;
  /// Cap on accepted pair equations in redundant mode (0 = one per link,
  /// i.e. |E|). Ignored when include_redundant is false.
  std::size_t max_pair_equations = 0;
  /// Worker threads for the batched pair-candidate evaluation (1 = inline
  /// on the caller, 0 = all hardware cores). Candidates are precomputed in
  /// fixed batches and merged in candidate order, so the built system —
  /// and therefore stdout — is byte-identical for any value. Keep 1 when
  /// trials already fan out across a pool (nested pools oversubscribe).
  std::size_t jobs = 1;
};

/// The pair harvest's exact correlation precheck. It keeps one bit per
/// correlation set for every eligible path — one whose own links are
/// correlation-free, so it touches each set at most once. The union of two
/// eligible paths is then correlation-free iff every set they share is
/// reached through a shared link: iff the shared signature bits equal the
/// shared links. No union is materialized.
class PairPrecheck {
 public:
  PairPrecheck(const corr::CorrelationSets& sets,
               const graph::CoverageIndex& coverage,
               const std::vector<std::uint8_t>& eligible);

  /// sets.correlation_free(sorted union of both paths' links); exact when
  /// both paths are eligible.
  bool correlation_free(graph::PathId p, graph::PathId q) const;

 private:
  const graph::CoverageIndex& coverage_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// Builds the equation system for the given correlation structure. Pass
/// CorrelationSets::singletons() to obtain the independence baseline's
/// system.
EquationSystem build_equations(const graph::CoverageIndex& coverage,
                               const corr::CorrelationSets& sets,
                               const sim::MeasurementProvider& measurement,
                               const EquationBuildOptions& options = {});

/// Solver-facing sparse view of the harvest: one row per equation,
/// borrowing the equations' link storage (the view must not outlive
/// `system`). With `weight_samples` > 0 each row is scaled by the inverse
/// standard deviation of its estimate: by the delta method,
/// Var(log p-hat) ~= (1 - p) / (p * N) for a binomial proportion over N
/// snapshots, so well-supported equations count more in the solve. Oracle
/// measurements (0 samples) are exact and stay unweighted.
linalg::SparseSystemView sparse_view(const EquationSystem& system,
                                     std::size_t weight_samples = 0);

/// Sparse view of `system` with replacement right-hand sides — the bootstrap
/// fast path, where a resampled replicate keeps the harvest's supports but
/// re-estimates every log-probability. ys[i] is equation i's new y; weights
/// (when `weight_samples` > 0) are recomputed from the new values, exactly
/// what a fresh harvest of the replicate would install. Same borrowing rule
/// as sparse_view: the view must not outlive `system`.
linalg::SparseSystemView sparse_view_with_rhs(const EquationSystem& system,
                                              const std::vector<double>& ys,
                                              std::size_t weight_samples = 0);

}  // namespace tomo::core
