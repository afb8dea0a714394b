#include "stream/streaming_measurement.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace tomo::stream {

StreamingMeasurement::StreamingMeasurement(std::size_t path_count)
    : path_count_(path_count) {
  TOMO_REQUIRE(path_count > 0,
               "streaming measurement needs at least one path");
}

void StreamingMeasurement::append(const sim::MeasurementBlock& window) {
  TOMO_REQUIRE(window.path_count == path_count_,
               "appended window has a different path count");
  if (measurement_.has_value()) {
    measurement_->append(window);
  } else {
    measurement_.emplace(window);
  }
  ++windows_;
}

const sim::MeasurementBlock& StreamingMeasurement::block() const {
  static const sim::MeasurementBlock kEmpty;
  return measurement_.has_value() ? measurement_->block() : kEmpty;
}

const sim::EmpiricalMeasurement& StreamingMeasurement::view() const {
  TOMO_REQUIRE(measurement_.has_value(),
               "streaming measurement queried before any window arrived");
  return *measurement_;
}

double StreamingMeasurement::good_prob(sim::PathId p) const {
  return view().good_prob(p);
}

double StreamingMeasurement::pair_good_prob(sim::PathId a,
                                            sim::PathId b) const {
  return view().pair_good_prob(a, b);
}

double StreamingMeasurement::exact_pattern_prob(
    const sim::PathIdSet& pattern) const {
  return view().exact_pattern_prob(pattern);
}

std::size_t StreamingMeasurement::sample_count() const {
  return view().sample_count();
}

std::vector<sim::MeasurementBlock> split_windows(
    const sim::MeasurementBlock& block, std::size_t window_snapshots) {
  TOMO_REQUIRE(window_snapshots > 0, "window size must be positive");
  TOMO_REQUIRE(!block.empty(), "cannot split an empty block");
  std::vector<sim::MeasurementBlock> windows;
  for (std::size_t first = 0; first < block.snapshot_count;
       first += window_snapshots) {
    const std::size_t count =
        std::min(window_snapshots, block.snapshot_count - first);
    windows.push_back(block.slice(first, count));
  }
  return windows;
}

}  // namespace tomo::stream
