// A deterministic parallel_for over short-lived worker threads.
//
// The experiment engine fans independent Monte-Carlo trials across cores:
// every work item derives its own RNG stream from (seed, index), writes
// into its own result slot, and the caller reduces in index order — so the
// output is bit-identical no matter how many workers ran. parallel_for
// encodes that contract: indices are claimed dynamically (trials vary in
// cost), results land by index, and the lowest-index exception is rethrown
// after every item has settled.
#pragma once

#include <cstddef>
#include <functional>

namespace tomo::util {

/// Resolves a `--jobs`-style request into a worker count: 0 means "all
/// hardware threads"; anything else is capped at the hardware threads, so
/// a huge request never becomes a huge thread count. Always at least 1.
std::size_t resolve_jobs(std::size_t requested);

/// Runs body(i) for every i in [0, n) on min(resolve_jobs(jobs), n)
/// workers: the caller plus threads started for this call and joined
/// before it returns (one worker runs everything inline on the caller).
/// Indices are claimed dynamically, so uneven item costs balance across
/// workers; determinism is the *caller's* contract (write only to slot i).
/// If items throw, every remaining item still runs, and the exception from
/// the lowest index is rethrown once all items have settled.
void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace tomo::util
