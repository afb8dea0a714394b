// The premise of the harvest's shared-link skip, pinned exactly.
//
// core::build_equations sweeps one pair per shared-link set: once every
// eligible path's row is in the span, a pair's union row is in it iff its
// shared-link indicator is, so a later pair with the same shared links is
// dependent. That argument is exact arithmetic; linalg::RankTracker
// decides in doubles with a tolerance. These tests drive it next to the
// exact GF(2^61 - 1) tracker through every registry entry's harvest rank
// stream, and check the algebra on random small systems with both.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_catalog.hpp"
#include "linalg/rank_tracker.hpp"
#include "reference/equations.hpp"
#include "reference/exact_rank.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace tomo {
namespace {

using Row = std::vector<std::size_t>;

TEST(RankTrackerExact, RegistryHarvestDecisionsAreExact) {
  const core::ScenarioCatalog& catalog = core::ScenarioCatalog::instance();
  for (const std::string& name : catalog.names()) {
    core::ScenarioConfig config =
        core::shrink_for_tests(catalog.at(name).config);
    config.seed = 0xd1ff;
    const core::ScenarioInstance inst = core::build_scenario(config);
    const graph::CoverageIndex coverage(inst.graph, inst.paths);
    sim::SimulatorConfig sc;
    sc.snapshots = 300;
    sc.packets_per_path = 500;
    sc.seed = 0xd1ff00;
    const sim::EmpiricalMeasurement measurement(
        sim::simulate(inst.graph, inst.paths, *inst.truth, sc).measurement);
    const corr::CorrelationSets singles =
        corr::CorrelationSets::singletons(coverage.link_count());
    for (const corr::CorrelationSets* sets : {&inst.declared_sets, &singles}) {
      const std::string what =
          name + (sets == &singles ? " (singletons)" : " (declared)");
      std::vector<Row> stream;
      reference::build_equations(coverage, *sets, measurement, {}, &stream);
      linalg::RankTracker floating(coverage.link_count());
      reference::ExactRankTracker exact(coverage.link_count());
      std::size_t independent = 0;
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const bool verdict = exact.try_add_ones(stream[i]);
        ASSERT_EQ(floating.try_add_ones(stream[i]), verdict)
            << what << ": row " << i << " of " << stream.size();
        independent += verdict ? 1 : 0;
      }
      EXPECT_EQ(floating.rank(), exact.rank()) << what;
      EXPECT_GT(independent, 0u) << what;
      EXPECT_LT(independent, stream.size()) << what;
    }
  }
}

/// `count` distinct columns of [0, dim) outside `taken`, sorted.
Row draw_columns(Rng& rng, std::size_t dim, std::size_t count,
                 const Row& taken) {
  Row out;
  while (out.size() < count) {
    const std::size_t c = rng.below(dim);
    if (std::find(taken.begin(), taken.end(), c) == taken.end() &&
        std::find(out.begin(), out.end(), c) == out.end()) {
      out.push_back(c);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Row merged(const Row& a, const Row& b) {
  Row out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// Offers `rows` in order to a copy of `tracker`, then `last`.
template <typename Tracker>
bool verdict_after(Tracker tracker, const std::vector<Row>& rows,
                   const Row& last) {
  for (const Row& row : rows) tracker.try_add_ones(row);
  return tracker.try_add_ones(last);
}

/// Once both paths' rows are offered, a pair's union row and its shared
/// links' indicator get one verdict, and a second pair with the same
/// shared links (rows offered too) is dependent once the first is swept.
template <typename Tracker>
void check_union_and_shared_links(std::uint64_t seed) {
  Rng rng(seed);
  std::size_t verdicts[2] = {0, 0};
  for (int round = 0; round < 400; ++round) {
    const std::size_t dim = 6 + rng.below(20);
    Tracker tracker(dim);
    const std::size_t base_rows = rng.below(dim);
    for (std::size_t r = 0; r < base_rows; ++r) {
      tracker.try_add_ones(draw_columns(rng, dim, 1 + rng.below(4), {}));
    }
    const Row shared = draw_columns(rng, dim, 1 + rng.below(3), {});
    const std::size_t room = dim - shared.size();
    const Row only_p = draw_columns(rng, dim, rng.below(room / 2 + 1), shared);
    const Row only_q = draw_columns(rng, dim, rng.below(room / 2 + 1),
                                    merged(shared, only_p));
    const Row p = merged(shared, only_p), q = merged(shared, only_q);
    const Row pair_union = merged(p, q);

    const bool by_union = verdict_after(tracker, {p, q}, pair_union);
    ASSERT_EQ(by_union, verdict_after(tracker, {p, q}, shared))
        << "round " << round;
    ++verdicts[by_union ? 1 : 0];

    const Row other_p = merged(
        shared, draw_columns(rng, dim, rng.below(room / 2 + 1), shared));
    const Row other_q = merged(
        shared, draw_columns(rng, dim, rng.below(room / 2 + 1), other_p));
    Tracker swept = tracker;
    for (const Row& row : {p, q, pair_union, other_p, other_q}) {
      swept.try_add_ones(row);
    }
    ASSERT_FALSE(swept.try_add_ones(merged(other_p, other_q)))
        << "round " << round;
  }
  // Both verdicts occur, so neither assertion holds vacuously.
  EXPECT_GT(verdicts[0], 0u);
  EXPECT_GT(verdicts[1], 0u);
}

TEST(RankTrackerExact, UnionAndSharedLinksGetOneVerdict) {
  check_union_and_shared_links<linalg::RankTracker>(0x5ea7);
  check_union_and_shared_links<reference::ExactRankTracker>(0x5ea7);
}

}  // namespace
}  // namespace tomo
