// The §4 equation builder.
//
// In the log domain, a "correlation-free" set of links (no two links from
// the same correlation set) factorizes: log P(all good) = Σ_k x_k. The
// builder therefore harvests two candidate families:
//   singles — paths whose links are correlation-free (Eq. 9), and
//   pairs   — path pairs whose *union* of links is correlation-free
//             (Eq. 10); only intersecting pairs can add rank, since the
//             union row of two disjoint basis rows is their sum.
// A candidate is usable when its empirical probability is non-zero. One
// rule decides what is kept: every usable single is an equation; pairs
// are accepted until the system is full rank and the pair budget is
// spent, and after that only rank-increasing pairs are. An incremental
// rank tracker follows the accepted rows, so the system may hold
// linearly dependent equations — the solver then fits every available
// measurement (what [12] effectively does).
//
// The pair harvest is the hot path at dense-mesh scale and is one pass
// over the candidates, in candidate order, on the caller's thread:
// per-link candidate emission deduplicated by lowest-touch-link ownership
// (no global seen-set), an exact correlation-set-signature precheck
// (PairPrecheck) that decides correlation_free(union) from the pair's
// shared-link count without materializing the union, and one rank sweep
// per shared-link set. A candidate walks the two link lists once, for
// their shared links; the union is built only for a pair the pass sweeps
// or keeps. Every eligible path's row is offered to the tracker first, so
// a pair's union row is in the span iff the indicator of its shared links
// is; once one pair with those shared links has been swept, every later
// one is dependent and skips its sweep (and, past the pair budget, its
// union). The accepted system is byte-identical to a sequential build
// that sweeps every pair, which the differential suite
// (test_equations_fast) enforces against reference::build_equations over
// the scalar reference measurement; test_rank_exact checks the tracker's
// verdicts on those streams against exact arithmetic.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "corr/correlation.hpp"
#include "graph/coverage.hpp"
#include "linalg/solvers.hpp"
#include "sim/estimator.hpp"
#include "sim/measurement.hpp"

namespace tomo::core {

/// A harvest candidate by its path ids: {p, p} is path p's single-path
/// equation, {p, q} with p != q the pair equation of p and q.
using CandidatePaths = std::pair<graph::PathId, graph::PathId>;

/// One equation, read in place: both views borrow the EquationList it came
/// from and last while that list does, unmodified.
struct Equation {
  std::span<const graph::LinkId> links;  // sorted union, the 0/1 row support
  std::span<const graph::PathId> paths;  // 1 (single) or 2 (pair)
  double y;                              // log P(all paths good)
};

/// A system's equations packed by rows: every support back to back in one
/// array, beside the rows' path ids and right-hand sides. Copying or
/// releasing a list costs a handful of allocations, not two per equation;
/// a streamed window hands a copy of the kept system to every estimate.
class EquationList {
 public:
  /// Yields each Equation by value, in order (for range-for).
  class const_iterator {
   public:
    const_iterator(const EquationList* list, std::size_t i)
        : list_(list), i_(i) {}
    Equation operator*() const { return (*list_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return i_ == other.i_;
    }

   private:
    const EquationList* list_;
    std::size_t i_;
  };

  std::size_t size() const { return ys_.size(); }
  bool empty() const { return ys_.empty(); }
  Equation operator[](std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    const std::size_t length = ends_[i] - begin;
    const graph::PathId* paths = paths_[i].data();
    const std::size_t path_count = paths[0] == paths[1] ? 1 : 2;
    return {{links_.data() + begin, length}, {paths, path_count}, ys_[i]};
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  void reserve(std::size_t rows) {
    ends_.reserve(rows);
    paths_.reserve(rows);
    ys_.reserve(rows);
  }
  /// Appends the equation of `paths` ({p, p} for path p's single) over the
  /// sorted support `links`.
  void push_back(std::span<const graph::LinkId> links, CandidatePaths paths,
                 double y) {
    links_.insert(links_.end(), links.begin(), links.end());
    ends_.push_back(links_.size());
    paths_.push_back({paths.first, paths.second});
    ys_.push_back(y);
  }

  /// Every equation's right-hand side, in order: a replayed harvest
  /// rewrites only these.
  std::span<double> ys() { return ys_; }

 private:
  // Row i's support is links_[ends_[i - 1], ends_[i]) (from 0 for row 0),
  // its paths are paths_[i] ({p, p} for a single) and its y is ys_[i].
  std::vector<graph::LinkId> links_;
  std::vector<std::size_t> ends_;
  std::vector<std::array<graph::PathId, 2>> paths_;
  std::vector<double> ys_;
};

struct EquationSystem {
  EquationList equations;  // the harvest's sparse product
  std::size_t link_count = 0;
  std::size_t n1 = 0;             // accepted single-path equations
  std::size_t n2 = 0;             // accepted pair equations
  std::size_t rank = 0;           // rank of the accepted rows
  std::size_t dropped_correlated = 0;  // candidates with correlated links
  std::size_t dropped_unusable = 0;    // zero empirical probability
  std::size_t dropped_dependent = 0;   // linearly dependent candidates
  std::size_t pair_candidates_tried = 0;
  /// Wall seconds spent inside build_equations (harvest telemetry; not a
  /// metric — never printed on stdout).
  double build_seconds = 0.0;

  bool full_rank() const { return rank == link_count; }
};

struct EquationBuildOptions {
  bool use_pairs = true;
  /// Pair budget: usable pairs are accepted, dependent or not, until this
  /// many are; after that only rank-increasing pairs are (0 = one per
  /// link, i.e. |E|).
  std::size_t max_pair_equations = 0;
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

  /// sets.correlation_free(sorted union of both paths' links), given
  /// `shared_links`, the number of links the two paths share; exact when
  /// both paths are eligible.
  bool correlation_free(graph::PathId p, graph::PathId q,
                        std::size_t shared_links) const;

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

/// The estimate of P(every path of `candidate` good): the y
/// build_equations installs, or unusable when that probability is 0.
sim::LogProbEstimate candidate_estimate(
    const sim::MeasurementProvider& measurement, CandidatePaths candidate);

/// Builds the equation system for the given correlation structure. Pass
/// CorrelationSets::singletons() to obtain the independence baseline's
/// system. When `unusable` is given, every candidate the build tried and
/// dropped as unusable is appended to it, in candidate order.
EquationSystem build_equations(const graph::CoverageIndex& coverage,
                               const corr::CorrelationSets& sets,
                               const sim::MeasurementProvider& measurement,
                               const EquationBuildOptions& options = {},
                               std::vector<CandidatePaths>* unusable = nullptr);

/// Solver-facing sparse view of the harvest: one row per equation,
/// borrowing the equations' link storage (the view must not outlive
/// `system`). Row i's right-hand side is equation i's y, or ys[i] when
/// `ys` is given — the bootstrap fast path, where a resampled replicate
/// keeps the harvest's supports but re-estimates every log-probability.
/// With `weight_samples` > 0 each row is scaled by the inverse standard
/// deviation of its estimate: by the delta method,
/// Var(log p-hat) ~= (1 - p) / (p * N) for a binomial proportion over N
/// snapshots, so well-supported equations count more in the solve. Oracle
/// measurements (0 samples) are exact and stay unweighted.
linalg::SparseSystemView sparse_view(const EquationSystem& system,
                                     std::size_t weight_samples = 0,
                                     std::span<const double> ys = {});

}  // namespace tomo::core
