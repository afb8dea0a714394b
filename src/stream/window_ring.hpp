// Bounded handoff between the daemon's reader and the inference loop.
//
// The streaming daemon splits ingestion (tailing an observation file or
// pipe) from inference (harvest + solve per window) across two threads;
// WindowRing is the fixed-capacity ring buffer between them. push blocks
// while the ring is full — natural back-pressure when inference lags the
// producer — and pop blocks while it is empty. close() wakes everyone:
// pending windows still drain, then pop returns nullopt and further
// pushes are refused.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <vector>

#include "sim/measurement_block.hpp"

namespace tomo::stream {

class WindowRing {
 public:
  explicit WindowRing(std::size_t capacity);

  /// Blocks until a slot frees up; false when the ring was closed before
  /// the window could be queued (the window is dropped).
  bool push(sim::MeasurementBlock window);

  /// Blocks for the next window, in arrival order; nullopt once the ring
  /// is closed and drained.
  std::optional<sim::MeasurementBlock> pop();

  /// Idempotent; queued windows remain poppable.
  void close();

  /// True once close() was called.
  bool closed() const;

  std::size_t capacity() const { return slots_.size(); }

  /// Windows currently queued (snapshot; racy by nature, for telemetry).
  std::size_t size() const;

 private:
  std::vector<sim::MeasurementBlock> slots_;
  std::size_t head_ = 0;   // next slot to pop
  std::size_t count_ = 0;  // occupied slots
  bool closed_ = false;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

}  // namespace tomo::stream
