#include "stream/window_ring.hpp"

#include "util/error.hpp"

namespace tomo::stream {

WindowRing::WindowRing(std::size_t capacity) : slots_(capacity) {
  TOMO_REQUIRE(capacity > 0, "window ring needs at least one slot");
}

bool WindowRing::push(sim::MeasurementBlock window) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock,
                 [&] { return closed_ || count_ < slots_.size(); });
  if (closed_) return false;
  slots_[(head_ + count_) % slots_.size()] = std::move(window);
  ++count_;
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

std::optional<sim::MeasurementBlock> WindowRing::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [&] { return closed_ || count_ > 0; });
  if (count_ == 0) return std::nullopt;  // closed and drained
  sim::MeasurementBlock window = std::move(slots_[head_]);
  head_ = (head_ + 1) % slots_.size();
  --count_;
  lock.unlock();
  not_full_.notify_one();
  return window;
}

void WindowRing::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool WindowRing::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t WindowRing::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return count_;
}

}  // namespace tomo::stream
