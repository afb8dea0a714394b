// The shard planner as first written: the differential reference for
// core::plan_shards. Its greedy grow loop gathers, sorts and
// de-duplicates a vantage cluster's links again every time it scores that
// cluster's overlap with the growing shard. Production builds each
// cluster's list once per plan and must reproduce every Shard (paths and
// links), shards_of_link and shared_links bit for bit.
#pragma once

#include <cstddef>
#include <vector>

#include "core/sharded_inference.hpp"

namespace tomo::reference {

/// Builds the plan core::plan_shards builds, from the same arguments.
core::ShardPlan plan_shards(const std::vector<graph::Path>& paths,
                            const graph::CoverageIndex& coverage,
                            const corr::CorrelationSets& sets,
                            std::size_t max_shard_paths);

}  // namespace tomo::reference
