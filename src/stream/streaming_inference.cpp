#include "stream/streaming_inference.hpp"

#include <utility>

#include "core/equations.hpp"
#include "util/stopwatch.hpp"

namespace tomo::stream {

StreamingInference::StreamingInference(const graph::Graph& g,
                                       const std::vector<graph::Path>& paths,
                                       const corr::CorrelationSets& declared,
                                       StreamingOptions options)
    : graph_(g),
      paths_(paths),
      declared_(declared),
      options_(std::move(options)),
      coverage_(g, paths),
      measurement_(paths.size()) {}

bool StreamingInference::incremental_solver() const {
  return options_.inference.solver.kind == linalg::SolverKind::kNnls;
}

bool StreamingInference::support_unchanged(
    const core::EquationSystem& system) const {
  if (system.link_count != gram_.gram.cols()) return false;
  if (system.equations.size() != gram_support_.size()) return false;
  for (std::size_t i = 0; i < gram_support_.size(); ++i) {
    if (system.equations[i].links != gram_support_[i]) return false;
  }
  return true;
}

void StreamingInference::remember_support(
    const core::EquationSystem& system) {
  gram_support_.clear();
  gram_support_.reserve(system.equations.size());
  for (const core::Equation& eq : system.equations) {
    gram_support_.push_back(eq.links);
  }
}

WindowEstimate StreamingInference::push_window(
    const sim::MeasurementBlock& window) {
  const Stopwatch timer;
  WindowEstimate out;
  out.window = measurement_.window_count();
  measurement_.append(window);
  out.snapshots = measurement_.block().snapshot_count;

  core::RefinedHarvest harvest = core::harvest_refined_system(
      graph_, paths_, coverage_, declared_, measurement_, options_.inference);
  if (harvest.system.equations.empty()) {
    // Nothing solvable yet; drop the caches so the next window starts
    // clean, and report the window as not yet usable.
    gram_valid_ = false;
    gram_support_.clear();
    prev_active_.clear();
    out.seconds = timer.seconds();
    return out;
  }

  const std::size_t weight_samples =
      options_.inference.weight_by_variance ? measurement_.sample_count()
                                            : 0;
  const linalg::SparseSystemView view =
      core::sparse_view(harvest.system, weight_samples);

  linalg::SolverOptions solver = options_.inference.solver;
  if (options_.warm_start && incremental_solver()) {
    solver.warm_start = prev_active_;
  }

  const Stopwatch solve_timer;
  linalg::LogSystemSolution solution;
  if (incremental_solver()) {
    // Variance weights change every row value, so only unweighted solves
    // can reuse G.
    const bool reuse = weight_samples == 0 && gram_valid_ &&
                       support_unchanged(harvest.system);
    if (reuse) {
      // Same equations, new measurements: G = AᵀA is exactly the batch
      // matrix already; only the rhs products depend on the y values.
      linalg::refresh_gram_rhs(gram_, view, solver.jobs);
      out.gram_reused = true;
    } else {
      gram_ = linalg::GramSystem{};
      linalg::accumulate_gram(gram_, view, solver.jobs);
      gram_valid_ = weight_samples == 0;
      if (gram_valid_) {
        remember_support(harvest.system);
      } else {
        gram_support_.clear();
      }
    }
    solution = linalg::solve_log_system(view, gram_, solver);
  } else {
    // Non-incremental solvers have no caches to exploit; plain re-solve.
    solution = linalg::solve_log_system(view, solver);
  }
  out.warm_started = !solver.warm_start.empty();
  out.inference.solve_seconds = solve_timer.seconds();
  out.inference.system = std::move(harvest.system);
  out.inference.refined_links = std::move(harvest.refined_links);
  prev_active_ = solution.active_set;
  core::apply_solution(out.inference, std::move(solution));
  out.usable = true;
  out.seconds = timer.seconds();
  return out;
}

}  // namespace tomo::stream
