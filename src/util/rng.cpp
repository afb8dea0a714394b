#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace tomo {

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t s = seed ^ (0x6a09e667f3bcc909ULL + tag);
  std::uint64_t a = splitmix64(s);
  std::uint64_t b = splitmix64(s);
  return a ^ rotl(b, 27);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
  // xoshiro must not start from the all-zero state; splitmix64 cannot
  // produce four consecutive zeros, but guard anyway.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  TOMO_ASSERT(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) {
  TOMO_ASSERT(n > 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  // Exploit symmetry so the per-trial loop below runs on the smaller tail.
  if (p > 0.5) {
    return n - binomial(n, 1.0 - p);
  }
  if (n <= 64 || static_cast<double>(n) * p < 16.0) {
    // Small n or small mean: inversion by counting geometric gaps.
    if (static_cast<double>(n) * p < 16.0 && n > 64) {
      const double log_q = std::log1p(-p);
      std::uint64_t count = 0;
      double sum = 0.0;
      for (;;) {
        // Geometric gap between successes.
        double g = std::floor(std::log(1.0 - uniform()) / log_q) + 1.0;
        sum += g;
        if (sum > static_cast<double>(n)) {
          return count;
        }
        ++count;
      }
    }
    std::uint64_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      count += bernoulli(p) ? 1 : 0;
    }
    return count;
  }
  // Large mean: normal approximation with continuity correction, clamped.
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  // Box-Muller.
  double u1 = uniform();
  double u2 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  double value = std::round(mean + sd * z);
  if (value < 0.0) value = 0.0;
  if (value > static_cast<double>(n)) value = static_cast<double>(n);
  return static_cast<std::uint64_t>(value);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  TOMO_ASSERT(k <= n);
  std::vector<std::size_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) indices[i] = i;
  // Partial Fisher-Yates: only the first k slots need to be settled.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + static_cast<std::size_t>(below(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

Rng Rng::split() { return Rng((*this)()); }

}  // namespace tomo
