#include "reference/observations.hpp"

#include <bit>

#include "util/error.hpp"

namespace tomo::reference {

PathObservations::PathObservations(std::size_t path_count,
                                   std::size_t snapshot_count)
    : path_count_(path_count), snapshot_count_(snapshot_count) {
  TOMO_REQUIRE(path_count > 0, "observations need at least one path");
  TOMO_REQUIRE(snapshot_count > 0, "observations need at least one snapshot");
  bits_.assign(path_count * words_per_path(), 0);
}

const std::uint64_t* PathObservations::row(PathId p) const {
  TOMO_REQUIRE(p < path_count_, "path id out of range");
  return bits_.data() + p * words_per_path();
}

void PathObservations::set_congested(PathId p, std::size_t n) {
  TOMO_REQUIRE(p < path_count_ && n < snapshot_count_,
               "observation index out of range");
  bits_[p * words_per_path() + n / 64] |= std::uint64_t{1} << (n % 64);
}

bool PathObservations::congested(PathId p, std::size_t n) const {
  TOMO_REQUIRE(n < snapshot_count_, "snapshot index out of range");
  return (row(p)[n / 64] >> (n % 64)) & 1;
}

std::size_t PathObservations::all_good_count(
    std::span<const PathId> paths) const {
  // OR the congested rows; every snapshot left clear was good on all.
  std::vector<std::uint64_t> any(words_per_path(), 0);
  for (PathId p : paths) {
    const std::uint64_t* r = row(p);
    for (std::size_t w = 0; w < any.size(); ++w) any[w] |= r[w];
  }
  std::size_t congested = 0;
  for (std::uint64_t word : any) {
    congested += static_cast<std::size_t>(std::popcount(word));
  }
  return snapshot_count_ - congested;
}

std::size_t PathObservations::good_count(PathId p) const {
  const PathId one[1] = {p};
  return all_good_count(one);
}

std::size_t PathObservations::both_good_count(PathId a, PathId b) const {
  const PathId two[2] = {a, b};
  return all_good_count(two);
}

std::size_t PathObservations::exact_pattern_count(
    const PathIdSet& pattern) const {
  std::vector<std::uint8_t> in_pattern(path_count_, 0);
  for (PathId p : pattern) {
    TOMO_REQUIRE(p < path_count_, "pattern path id out of range");
    in_pattern[p] = 1;
  }
  std::size_t count = 0;
  for (std::size_t n = 0; n < snapshot_count_; ++n) {
    bool match = true;
    for (PathId p = 0; p < path_count_ && match; ++p) {
      match = congested(p, n) == (in_pattern[p] != 0);
    }
    count += match ? 1 : 0;
  }
  return count;
}

sim::MeasurementBlock to_block(const PathObservations& obs) {
  sim::MeasurementBlock block =
      sim::MeasurementBlock::all_good(obs.path_count(), obs.snapshot_count());
  for (PathId p = 0; p < obs.path_count(); ++p) {
    for (std::size_t n = 0; n < obs.snapshot_count(); ++n) {
      if (obs.congested(p, n)) {
        block.good_row(p)[n / 64] &= ~(std::uint64_t{1} << (n % 64));
      }
    }
  }
  block.recount();
  return block;
}

PathObservations to_observations(const sim::MeasurementBlock& block) {
  PathObservations obs(block.path_count, block.snapshot_count);
  for (PathId p = 0; p < block.path_count; ++p) {
    for (std::size_t n = 0; n < block.snapshot_count; ++n) {
      if (!((block.good_row(p)[n / 64] >> (n % 64)) & 1)) {
        obs.set_congested(p, n);
      }
    }
  }
  return obs;
}

PathObservations resample_snapshots(const PathObservations& obs, Rng& rng) {
  const std::size_t n = obs.snapshot_count();
  std::vector<std::size_t> picks(n);
  for (std::size_t i = 0; i < n; ++i) {
    picks[i] = static_cast<std::size_t>(rng.below(n));
  }
  PathObservations out(obs.path_count(), n);
  for (PathId p = 0; p < obs.path_count(); ++p) {
    for (std::size_t i = 0; i < n; ++i) {
      if (obs.congested(p, picks[i])) out.set_congested(p, i);
    }
  }
  return out;
}

ScalarMeasurement::ScalarMeasurement(PathObservations obs)
    : obs_(std::move(obs)) {}

double ScalarMeasurement::good_prob(PathId p) const {
  return static_cast<double>(obs_.good_count(p)) /
         static_cast<double>(obs_.snapshot_count());
}

double ScalarMeasurement::pair_good_prob(PathId a, PathId b) const {
  return static_cast<double>(obs_.both_good_count(a, b)) /
         static_cast<double>(obs_.snapshot_count());
}

double ScalarMeasurement::exact_pattern_prob(const PathIdSet& pattern) const {
  return static_cast<double>(obs_.exact_pattern_count(pattern)) /
         static_cast<double>(obs_.snapshot_count());
}

}  // namespace tomo::reference
