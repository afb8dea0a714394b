#include "stream/streaming_inference.hpp"

#include <algorithm>
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

WindowEstimate StreamingInference::push_window(
    const sim::MeasurementBlock& window) {
  const Stopwatch timer;
  WindowEstimate out;
  out.window = measurement_.window_count();
  measurement_.append(window);
  out.snapshots = measurement_.block().snapshot_count;

  // Only a candidate the kept harvest found unusable can have changed
  // usability since (a prefix only gains good snapshots), so when none has
  // the re-harvest would rebuild the kept system with new y values.
  out.harvest_replayed =
      kept_.has_value() && core::replay_harvest(*kept_, measurement_, ys_);
  if (out.harvest_replayed) {
    core::EquationSystem& system = kept_->system;
    std::copy(ys_.begin(), ys_.end(), system.equations.ys().begin());
    system.build_seconds = 0.0;  // nothing was built
  } else {
    kept_ = core::harvest_refined_system(graph_, paths_, coverage_, declared_,
                                         measurement_, options_.inference);
  }
  const core::EquationSystem& system = kept_->system;
  if (system.equations.empty()) {
    // Nothing solvable yet; the next window starts cold, and this one is
    // reported as not yet usable.
    prev_active_.clear();
    out.seconds = timer.seconds();
    return out;
  }

  const std::size_t weight_samples =
      options_.inference.weight_by_variance ? measurement_.sample_count()
                                            : 0;
  const linalg::SparseSystemView view =
      core::sparse_view(system, weight_samples);

  linalg::SolverOptions solver = options_.inference.solver;
  if (options_.warm_start) solver.warm_start = prev_active_;

  const Stopwatch solve_timer;
  // The kept Gram system keeps G when this window has its rows (always
  // after a replay, unless variance weights changed the row values).
  linalg::LogSystemSolution solution =
      linalg::solve_log_system(view, gram_, solver);
  out.gram_reused = solution.gram_reused;
  out.warm_started = !solver.warm_start.empty();
  out.inference.solve_seconds = solve_timer.seconds();
  out.inference.system = system;
  out.inference.refined_links = kept_->refined_links;
  prev_active_ = solution.active_set;
  core::apply_solution(out.inference, std::move(solution));
  out.usable = true;
  out.seconds = timer.seconds();
  return out;
}

}  // namespace tomo::stream
