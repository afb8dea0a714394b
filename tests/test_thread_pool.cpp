// parallel_for and resolve_jobs underpin the trial engine's determinism
// contract: results land by index, exceptions propagate, worker count
// never changes observable output, and no request starts more threads
// than the hardware has.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using tomo::util::parallel_for;
using tomo::util::resolve_jobs;

/// The hardware threads resolve_jobs caps at (at least 1).
std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

TEST(ResolveJobs, ZeroMeansHardwareAndAtLeastOne) {
  EXPECT_EQ(resolve_jobs(0), hardware_threads());
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), std::min<std::size_t>(7, hardware_threads()));
}

/// A huge --jobs value resolves to the hardware threads; resolve_jobs
/// itself starts no thread, so this never asks for one per job.
TEST(ResolveJobs, CapsAtHardwareThreads) {
  EXPECT_EQ(resolve_jobs(std::numeric_limits<std::size_t>::max()),
            hardware_threads());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {1u, 2u, 5u}) {
    std::vector<int> hits(97, 0);
    parallel_for(jobs, hits.size(),
                 [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 97)
        << "jobs=" << jobs;
    for (const int h : hits) EXPECT_EQ(h, 1);
  }
}

/// Each call runs the body on at most min(jobs, n) distinct threads, and
/// with one worker only on the caller's own thread.
TEST(ParallelFor, StartsAtMostMinJobsNThreads) {
  for (const std::size_t jobs : {1u, 2u, 3u}) {
    for (const std::size_t n : {1u, 2u, 5u, 64u}) {
      std::mutex mutex;
      std::set<std::thread::id> threads;
      parallel_for(jobs, n, [&](std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        threads.insert(std::this_thread::get_id());
      });
      EXPECT_GE(threads.size(), 1u);
      EXPECT_LE(threads.size(), std::min(jobs, n))
          << "jobs=" << jobs << " n=" << n;
      if (jobs == 1) {
        EXPECT_EQ(threads, std::set{std::this_thread::get_id()}) << "n=" << n;
      }
    }
  }
}

TEST(ParallelFor, HandlesZeroAndOneItems) {
  int calls = 0;
  parallel_for(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(4, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, RethrowsLowestIndexExceptionAfterAllSettle) {
  std::atomic<int> completed{0};
  try {
    parallel_for(4, 20, [&](std::size_t i) {
      if (i == 3 || i == 11) {
        throw tomo::Error("boom at " + std::to_string(i));
      }
      completed.fetch_add(1);
    });
    FAIL() << "expected tomo::Error";
  } catch (const tomo::Error& e) {
    EXPECT_EQ(e.message(), "boom at 3");  // lowest index wins
  }
  EXPECT_EQ(completed.load(), 18);  // every non-throwing item still ran
}

TEST(ParallelFor, InlinePathAlsoThrows) {
  EXPECT_THROW(
      parallel_for(1, 5,
                   [](std::size_t i) {
                     if (i == 2) throw tomo::Error("inline boom");
                   }),
      tomo::Error);
}

}  // namespace
