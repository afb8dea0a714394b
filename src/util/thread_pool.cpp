#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace tomo::util {

std::size_t resolve_jobs(std::size_t requested) {
  const std::size_t hardware =
      std::max(1u, std::thread::hardware_concurrency());
  return requested == 0 ? hardware : std::min(requested, hardware);
}

void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t workers = std::min(resolve_jobs(jobs), n);

  // Dynamic index claiming: every worker, the caller included, pulls the
  // next unclaimed index, so expensive items do not serialize behind a
  // static partition. The lowest-index exception is kept and rethrown
  // after the join, keeping failure behavior independent of scheduling
  // order.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = n;  // guarded by error_mutex
  std::exception_ptr error;     // guarded by error_mutex
  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };
  {
    // A jthread joins on destruction, so the started threads are joined
    // before `drain`'s state goes, on the exception path too.
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(drain);
    drain();
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace tomo::util
