// The streamed-vs-batch equivalence tier — the convergence contract of the
// streaming inference subsystem, pinned on every registry scenario.
//
// The contract (see src/stream/streaming_inference.hpp): after ingesting
// windows covering the first N snapshots, StreamingInference's estimate
// equals a one-shot batch infer_congestion over those same N snapshots —
// the identical equation system and Gram bits (the cumulative block is a
// bit-exact splice, and every Gram entry is summed in ascending row
// order), the same NNLS optimum (bit-identical when the solve is cold;
// when warm-started, the same fitted values to solver tolerance, and the
// same active set and solution wherever the optimum is unique) — and the
// streamed output is bit-identical for any jobs value.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "core/equations.hpp"
#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/coverage.hpp"
#include "linalg/rank_tracker.hpp"
#include "linalg/solvers.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "stream/streaming_inference.hpp"
#include "stream/streaming_measurement.hpp"
#include "test_helpers.hpp"

namespace tomo::stream {
namespace {

struct Prepared {
  core::ScenarioInstance inst;
  sim::SimulationResult simr;
};

Prepared prepare(const std::string& name) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(name).config);
  config.seed = 0x57e4;
  Prepared out{core::build_scenario(std::move(config)), {}};
  sim::SimulatorConfig sc;
  sc.snapshots = 300;
  sc.packets_per_path = 500;
  sc.seed = 0x57e400;
  out.simr = sim::simulate(out.inst.graph, out.inst.paths, *out.inst.truth,
                           sc);
  return out;
}

core::InferenceResult batch_infer(const Prepared& p, std::size_t jobs = 1) {
  const graph::CoverageIndex coverage(p.inst.graph, p.inst.paths);
  const sim::EmpiricalMeasurement measurement(
      sim::MeasurementBlock(p.simr.measurement));
  core::InferenceOptions options;
  options.solver.jobs = jobs;
  return core::infer_congestion(p.inst.graph, p.inst.paths, coverage,
                                p.inst.declared_sets, measurement, options);
}

std::vector<WindowEstimate> streamed_infer(const Prepared& p,
                                           std::size_t window,
                                           const StreamingOptions& options) {
  StreamingInference inference(p.inst.graph, p.inst.paths,
                               p.inst.declared_sets, options);
  std::vector<WindowEstimate> out;
  for (const sim::MeasurementBlock& w :
       split_windows(p.simr.measurement, window)) {
    out.push_back(inference.push_window(w));
  }
  return out;
}

std::vector<WindowEstimate> streamed_infer(const Prepared& p,
                                           std::size_t window,
                                           std::size_t jobs,
                                           bool warm_start = true) {
  StreamingOptions options;
  options.inference.solver.jobs = jobs;
  options.warm_start = warm_start;
  return streamed_infer(p, window, options);
}

class RegistryStreamEquivalence
    : public ::testing::TestWithParam<std::string> {};

/// Fitted log-probabilities A·x of every equation of `r`'s system.
std::vector<double> fitted_values(const core::InferenceResult& r) {
  std::vector<double> fitted;
  for (const core::Equation& eq : r.system.equations) {
    double sum = 0.0;
    for (graph::LinkId e : eq.links) sum += r.log_good[e];
    fitted.push_back(sum);
  }
  return fitted;
}

/// True iff the incidence columns `cols` (sorted link ids) of `system` are
/// linearly independent — the Gram restricted to them is nonsingular.
bool columns_independent(const core::EquationSystem& system,
                         const std::vector<std::size_t>& cols) {
  constexpr std::size_t kAbsent = ~std::size_t{0};
  std::vector<std::size_t> index(system.link_count, kAbsent);
  for (std::size_t k = 0; k < cols.size(); ++k) index[cols[k]] = k;
  linalg::RankTracker tracker(cols.size());
  for (const core::Equation& eq : system.equations) {
    std::vector<std::size_t> ones;
    for (graph::LinkId e : eq.links) {
      if (index[e] != kAbsent) ones.push_back(index[e]);
    }
    if (!ones.empty()) tracker.try_add_ones(ones);
  }
  return tracker.full_rank();
}

/// The headline: several window schedules (including a ragged final
/// window), warm-started and Gram-reusing, jobs {1, 3} — the final
/// window's estimate must reach the one-shot batch solve's optimum.
TEST_P(RegistryStreamEquivalence, FinalWindowMatchesOneShotBatch) {
  const Prepared p = prepare(GetParam());
  const core::InferenceResult batch = batch_infer(p);
  ASSERT_FALSE(batch.congestion_prob.empty());

  // 97 gives 97+97+97+9 (ragged tail), 128 gives 128+128+44.
  for (const std::size_t window : {97ul, 128ul}) {
    const std::string what =
        GetParam() + " window=" + std::to_string(window);
    const std::vector<WindowEstimate> serial = streamed_infer(p, window, 1);
    ASSERT_FALSE(serial.empty()) << what;
    const WindowEstimate& last = serial.back();
    ASSERT_TRUE(last.usable) << what;
    ASSERT_EQ(last.snapshots, 300u) << what;

    // Same harvested structure as the batch run, bit for bit.
    ASSERT_EQ(last.inference.system.equations.size(),
              batch.system.equations.size())
        << what;
    // The same optimum. The fitted values A·x are unique over the optimal
    // set, so they always agree to solver tolerance (the warm solve edits
    // the Cholesky factor in a different insertion order, so the last few
    // bits may differ).
    const std::vector<double> streamed_fit = fitted_values(last.inference);
    const std::vector<double> batch_fit = fitted_values(batch);
    for (std::size_t i = 0; i < batch_fit.size(); ++i) {
      EXPECT_NEAR(streamed_fit[i], batch_fit[i], 1e-8)
          << what << " equation " << i;
    }
    // Two optima with equal A·x differ by a null vector of A supported on
    // the union of their supports. When those columns are independent the
    // optimum is unique there: same active set, same per-link estimates.
    // Only a singular union (congested twins, e.g. waxman-full's links 26
    // and 35) lets warm and cold stop at different, equally optimal
    // vertices.
    ASSERT_EQ(last.inference.congestion_prob.size(),
              batch.congestion_prob.size())
        << what;
    std::vector<std::size_t> support_union;
    std::set_union(last.inference.active_set.begin(),
                   last.inference.active_set.end(), batch.active_set.begin(),
                   batch.active_set.end(), std::back_inserter(support_union));
    if (columns_independent(batch.system, support_union)) {
      EXPECT_EQ(last.inference.active_set, batch.active_set) << what;
      for (std::size_t k = 0; k < batch.congestion_prob.size(); ++k) {
        EXPECT_NEAR(last.inference.congestion_prob[k],
                    batch.congestion_prob[k], 1e-8)
            << what << " link " << k;
      }
    }
    EXPECT_EQ(last.inference.system.rank, batch.system.rank) << what;
    EXPECT_EQ(last.inference.refined_links, batch.refined_links) << what;

    // Jobs-invariance: every window's solution is bit-identical under a
    // parallel Gram build (each entry still summed in row order).
    const std::vector<WindowEstimate> parallel =
        streamed_infer(p, window, 3);
    ASSERT_EQ(parallel.size(), serial.size()) << what;
    for (std::size_t k = 0; k < serial.size(); ++k) {
      ASSERT_EQ(parallel[k].usable, serial[k].usable) << what;
      if (!serial[k].usable) continue;
      EXPECT_EQ(parallel[k].inference.log_good, serial[k].inference.log_good)
          << what << " window " << k << ": jobs must not change bits";
      EXPECT_EQ(parallel[k].inference.congestion_prob,
                serial[k].inference.congestion_prob)
          << what << " window " << k;
      EXPECT_EQ(parallel[k].inference.active_set,
                serial[k].inference.active_set)
          << what << " window " << k;
    }
  }
}

/// A window covering the whole trace makes the only solve a cold one over
/// the full block: the streamed result must be *bit-identical* to batch —
/// the strongest form of the differential contract.
TEST_P(RegistryStreamEquivalence, SingleWindowStreamIsBitIdentical) {
  const Prepared p = prepare(GetParam());
  const core::InferenceResult batch = batch_infer(p);
  const std::vector<WindowEstimate> streamed = streamed_infer(p, 300, 1);
  ASSERT_EQ(streamed.size(), 1u);
  const WindowEstimate& only = streamed.back();
  ASSERT_TRUE(only.usable);
  EXPECT_FALSE(only.warm_started);
  EXPECT_EQ(only.inference.log_good, batch.log_good);
  EXPECT_EQ(only.inference.congestion_prob, batch.congestion_prob);
  EXPECT_EQ(only.inference.active_set, batch.active_set);
  EXPECT_EQ(only.inference.solver_detail, batch.solver_detail);
}

/// The replay differential's window schedule: 1- and 2-snapshot windows
/// first, so early windows find unusable candidates that later windows
/// see turn usable (the full harvest runs), then doubling windows, over
/// which usability settles (the kept harvest replays).
std::vector<sim::MeasurementBlock> replay_schedule(
    const sim::MeasurementBlock& block) {
  std::vector<sim::MeasurementBlock> out;
  std::size_t first = 0;
  for (const std::size_t size : {1, 1, 2, 2, 4, 8, 16, 32, 64}) {
    out.push_back(block.slice(first, size));
    first += size;
  }
  out.push_back(block.slice(first, block.snapshot_count - first));
  return out;
}

/// Asserts `got` is bitwise the harvested system `want`: every field but
/// the build time.
void expect_same_system(const core::EquationSystem& got,
                        const core::EquationSystem& want,
                        const std::string& what) {
  EXPECT_EQ(got.link_count, want.link_count) << what;
  EXPECT_EQ(got.n1, want.n1) << what;
  EXPECT_EQ(got.n2, want.n2) << what;
  EXPECT_EQ(got.rank, want.rank) << what;
  EXPECT_EQ(got.dropped_correlated, want.dropped_correlated) << what;
  EXPECT_EQ(got.dropped_unusable, want.dropped_unusable) << what;
  EXPECT_EQ(got.dropped_dependent, want.dropped_dependent) << what;
  EXPECT_EQ(got.pair_candidates_tried, want.pair_candidates_tried) << what;
  ASSERT_EQ(got.equations.size(), want.equations.size()) << what;
  for (std::size_t i = 0; i < want.equations.size(); ++i) {
    const core::Equation& g = got.equations[i];
    const core::Equation& w = want.equations[i];
    EXPECT_TRUE(std::ranges::equal(g.links, w.links))
        << what << " equation " << i;
    EXPECT_TRUE(std::ranges::equal(g.paths, w.paths))
        << what << " equation " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g.y),
              std::bit_cast<std::uint64_t>(w.y))
        << what << " equation " << i << ": y " << g.y << " vs " << w.y;
  }
}

/// Harvest replay is exact: whether a window replayed the previous
/// window's harvest or re-harvested, its system is bitwise what a fresh
/// harvest over the same prefix builds. The schedule exercises both
/// branches on every registry entry.
TEST_P(RegistryStreamEquivalence, ReplayedHarvestEqualsFreshHarvest) {
  const Prepared p = prepare(GetParam());
  const graph::CoverageIndex coverage(p.inst.graph, p.inst.paths);
  StreamingInference inference(p.inst.graph, p.inst.paths,
                               p.inst.declared_sets);
  std::size_t replayed = 0, reharvested = 0;
  for (const sim::MeasurementBlock& w :
       replay_schedule(p.simr.measurement)) {
    const WindowEstimate estimate = inference.push_window(w);
    const std::string what =
        GetParam() + " window " + std::to_string(estimate.window);
    if (estimate.harvest_replayed) {
      ASSERT_GT(estimate.window, 0u) << what;
      ++replayed;
    } else if (estimate.window > 0) {
      ++reharvested;
    }
    const sim::EmpiricalMeasurement prefix(
        p.simr.measurement.slice(0, estimate.snapshots));
    const core::RefinedHarvest fresh = core::harvest_refined_system(
        p.inst.graph, p.inst.paths, coverage, p.inst.declared_sets, prefix,
        core::InferenceOptions{});
    ASSERT_EQ(estimate.usable, !fresh.system.equations.empty()) << what;
    if (!estimate.usable) continue;
    expect_same_system(estimate.inference.system, fresh.system, what);
    EXPECT_EQ(estimate.inference.refined_links, fresh.refined_links) << what;
  }
  EXPECT_GT(replayed, 0u) << "no window replayed the kept harvest";
  EXPECT_GT(reharvested, 0u) << "no window past the first re-harvested";
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, RegistryStreamEquivalence,
    ::testing::ValuesIn(core::ScenarioCatalog::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// Streams `p` in 97-snapshot windows under `options` and expects every
/// usable window bitwise equal to a batch infer_congestion (with the same
/// inference options) over the same snapshot prefix.
std::vector<WindowEstimate> expect_windows_equal_prefix_batch(
    const Prepared& p, const StreamingOptions& options,
    const std::string& what) {
  const std::vector<WindowEstimate> streamed = streamed_infer(p, 97, options);
  const graph::CoverageIndex coverage(p.inst.graph, p.inst.paths);
  std::size_t ingested = 0;
  for (const WindowEstimate& estimate : streamed) {
    ingested = estimate.snapshots;
    if (!estimate.usable) continue;
    const sim::EmpiricalMeasurement prefix(
        p.simr.measurement.slice(0, ingested));
    const core::InferenceResult batch = core::infer_congestion(
        p.inst.graph, p.inst.paths, coverage, p.inst.declared_sets, prefix,
        options.inference);
    const std::string where =
        what + " window " + std::to_string(estimate.window);
    EXPECT_EQ(estimate.inference.log_good, batch.log_good) << where;
    EXPECT_EQ(estimate.inference.congestion_prob, batch.congestion_prob)
        << where;
    EXPECT_EQ(estimate.inference.active_set, batch.active_set) << where;
  }
  EXPECT_EQ(ingested, 300u) << what;
  return streamed;
}

/// With the warm start disabled, *every* window's solve is cold over the
/// cumulative block — so each window must be bit-identical to a batch run
/// truncated to the same snapshot prefix. This pins the whole incremental
/// plumbing (splice, harvest, Gram reuse) with zero tolerance, leaving the
/// warm start as the only approximately-equal step in the headline test.
/// At least one steady-state window must take the Gram-reuse branch (only
/// the right-hand-side products refreshed), so reuse is pinned bitwise too.
TEST(StreamingFast, ColdWindowsEqualPrefixBatchBitwise) {
  StreamingOptions options;
  options.warm_start = false;
  const std::vector<WindowEstimate> streamed =
      expect_windows_equal_prefix_batch(prepare("waxman-bursty"), options,
                                        "cold");
  bool any_reused = false;
  for (const WindowEstimate& e : streamed) any_reused |= e.gram_reused;
  EXPECT_TRUE(any_reused)
      << "expected at least one steady-state window to reuse the Gram";
}

/// Variance weights and the row-oriented kinds take the same single solve
/// path, and it stays exact: a weighted window never keeps G (the weights
/// change every row value), and a least-squares window has no active set
/// to warm-start from.
TEST(StreamingFast, WeightedAndDenseKindWindowsEqualPrefixBatchBitwise) {
  const Prepared p = prepare("waxman-bursty");
  StreamingOptions weighted;
  weighted.warm_start = false;
  weighted.inference.weight_by_variance = true;
  for (const WindowEstimate& e :
       expect_windows_equal_prefix_batch(p, weighted, "weighted")) {
    EXPECT_FALSE(e.gram_reused) << "weighted window " << e.window;
  }
  StreamingOptions dense;
  dense.inference.solver.kind = linalg::SolverKind::kLeastSquares;
  for (const WindowEstimate& e :
       expect_windows_equal_prefix_batch(p, dense, "ls")) {
    EXPECT_FALSE(e.warm_started) << "ls window " << e.window;
    EXPECT_FALSE(e.gram_reused) << "ls window " << e.window;
  }
}

/// Gram reuse must never change bits: each warm-started steady-state window
/// that refreshed only the right-hand-side products must equal the same
/// solve (same equations, same warm start) on a freshly built Gram.
TEST(StreamingFast, GramReuseChangesNoBits) {
  const Prepared p = prepare("brite-high");
  const std::vector<WindowEstimate> streamed = streamed_infer(p, 97, 1);
  bool any_reused = false;
  for (std::size_t k = 0; k < streamed.size(); ++k) {
    if (!streamed[k].gram_reused) continue;
    any_reused = true;
    // Reuse needs a valid Gram, so the previous window was usable and its
    // active set is this window's warm start.
    ASSERT_GT(k, 0u);
    ASSERT_TRUE(streamed[k - 1].usable);
    linalg::SolverOptions solver;
    solver.warm_start = streamed[k - 1].inference.active_set;
    core::InferenceResult rebuilt;
    core::apply_solution(
        rebuilt, linalg::solve_log_system(
                     core::sparse_view(streamed[k].inference.system), solver));
    EXPECT_EQ(streamed[k].inference.log_good, rebuilt.log_good)
        << "window " << k;
    EXPECT_EQ(streamed[k].inference.congestion_prob, rebuilt.congestion_prob)
        << "window " << k;
    EXPECT_EQ(streamed[k].inference.active_set, rebuilt.active_set)
        << "window " << k;
  }
  EXPECT_TRUE(any_reused)
      << "expected at least one steady-state window to reuse the Gram";
}

/// The replay's fallback on a hand-built stream: Figure 1(a)'s path 0 is
/// congested through window 0 and first good in window 1. Window 0's
/// harvest records its single as unusable, so window 1 must re-harvest;
/// nothing changes usability after that, so window 2 must replay. Every
/// window equals a fresh harvest of its prefix.
TEST(StreamingFast, FirstGoodSnapshotForcesReharvestThenReplay) {
  const tomo::testing::ToySystem sys = tomo::testing::figure_1a();
  std::vector<sim::MeasurementBlock> windows(
      3, sim::MeasurementBlock::all_good(sys.paths.size(), 4));
  windows[0].good_row(0)[0] = 0;  // path 0 congested in all 4 snapshots
  windows[0].recount();

  const graph::CoverageIndex coverage(sys.graph, sys.paths);
  StreamingInference inference(sys.graph, sys.paths, sys.sets);
  sim::MeasurementBlock seen;
  std::vector<bool> replayed;
  for (const sim::MeasurementBlock& w : windows) {
    const WindowEstimate estimate = inference.push_window(w);
    const std::string what = "window " + std::to_string(estimate.window);
    replayed.push_back(estimate.harvest_replayed);
    seen.append(w);
    const sim::EmpiricalMeasurement prefix{sim::MeasurementBlock(seen)};
    const core::RefinedHarvest fresh = core::harvest_refined_system(
        sys.graph, sys.paths, coverage, sys.sets, prefix,
        core::InferenceOptions{});
    if (estimate.window == 0) {
      ASSERT_FALSE(fresh.unusable.empty()) << what;
      EXPECT_EQ(fresh.unusable.front(), core::CandidatePaths(0, 0)) << what;
    } else {
      EXPECT_TRUE(fresh.unusable.empty()) << what;
    }
    ASSERT_TRUE(estimate.usable) << what;
    expect_same_system(estimate.inference.system, fresh.system, what);
    EXPECT_EQ(estimate.inference.refined_links, fresh.refined_links) << what;
  }
  EXPECT_EQ(replayed, (std::vector<bool>{false, false, true}));
}

}  // namespace
}  // namespace tomo::stream
