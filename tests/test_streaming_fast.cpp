// The streamed-vs-batch equivalence tier — the convergence contract of the
// streaming inference subsystem, pinned on every registry scenario.
//
// The contract (see src/stream/streaming_inference.hpp): after ingesting
// windows covering the first N snapshots, StreamingInference's estimate
// equals a one-shot batch infer_congestion over those same N snapshots —
// the identical equation system and Gram bits (the cumulative block is a
// bit-exact splice, and the Gram accumulation is row-ordered and
// additive), the same NNLS optimum (bit-identical when the solve is cold;
// when warm-started, the same fitted values to solver tolerance, and the
// same active set and solution wherever the optimum is unique) — and the
// streamed output is bit-identical for any jobs value.
#include <gtest/gtest.h>

#include <algorithm>
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
  options.equations.jobs = jobs;
  return core::infer_congestion(p.inst.graph, p.inst.paths, coverage,
                                p.inst.declared_sets, measurement, options);
}

std::vector<WindowEstimate> streamed_infer(const Prepared& p,
                                           std::size_t window,
                                           std::size_t jobs,
                                           bool warm_start = true) {
  StreamingOptions options;
  options.inference.solver.jobs = jobs;
  options.inference.equations.jobs = jobs;
  options.warm_start = warm_start;
  StreamingInference inference(p.inst.graph, p.inst.paths,
                               p.inst.declared_sets, options);
  std::vector<WindowEstimate> out;
  for (const sim::MeasurementBlock& w :
       split_windows(p.simr.measurement, window)) {
    out.push_back(inference.push_window(w));
  }
  return out;
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
    // parallel Gram build (in-order additive reduction).
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

/// With the warm start disabled, *every* window's solve is cold over the
/// cumulative block — so each window must be bit-identical to a batch run
/// truncated to the same snapshot prefix. This pins the whole incremental
/// plumbing (splice, harvest, Gram reuse) with zero tolerance, leaving the
/// warm start as the only approximately-equal step in the headline test.
/// At least one steady-state window must take the Gram-reuse branch (only
/// the right-hand-side products refreshed), so reuse is pinned bitwise too.
TEST(StreamingFast, ColdWindowsEqualPrefixBatchBitwise) {
  const Prepared p = prepare("waxman-bursty");
  const std::vector<WindowEstimate> streamed =
      streamed_infer(p, 97, 1, /*warm_start=*/false);
  const graph::CoverageIndex coverage(p.inst.graph, p.inst.paths);
  std::size_t ingested = 0;
  bool any_reused = false;
  for (const WindowEstimate& estimate : streamed) {
    ingested = estimate.snapshots;
    if (!estimate.usable) continue;
    any_reused = any_reused || estimate.gram_reused;
    const sim::EmpiricalMeasurement prefix(
        p.simr.measurement.slice(0, ingested));
    const core::InferenceResult batch = core::infer_congestion(
        p.inst.graph, p.inst.paths, coverage, p.inst.declared_sets, prefix,
        core::InferenceOptions{});
    EXPECT_EQ(estimate.inference.log_good, batch.log_good)
        << "window " << estimate.window;
    EXPECT_EQ(estimate.inference.congestion_prob, batch.congestion_prob)
        << "window " << estimate.window;
    EXPECT_EQ(estimate.inference.active_set, batch.active_set)
        << "window " << estimate.window;
  }
  EXPECT_EQ(ingested, 300u);
  EXPECT_TRUE(any_reused)
      << "expected at least one steady-state window to reuse the Gram";
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

}  // namespace
}  // namespace tomo::stream
