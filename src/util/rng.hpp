// Deterministic pseudo-random number generation.
//
// Every stochastic component of libtomo takes an explicit 64-bit seed so
// that experiments are reproducible bit-for-bit across runs and machines.
// The engine is xoshiro256** seeded through SplitMix64, which satisfies
// std::uniform_random_bit_generator and therefore composes with the
// standard <random> distributions.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace tomo {

/// SplitMix64 step; used for seed expansion and cheap hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// Mixes two seeds into one, so components can derive independent
/// sub-streams from (experiment seed, component tag).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// xoshiro256** 1.0 engine (Blackman & Vigna). Small, fast, and with
/// 256-bit state, far more than the simulations here need.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words by iterating SplitMix64 from `seed`.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t below(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Binomial(n, p) sample. Uses per-trial Bernoulli for small n and the
  /// BTPE-free inversion/normal hybrid otherwise; exact distribution is not
  /// required by callers beyond matching Binomial(n, p).
  std::uint64_t binomial(std::uint64_t n, double p);

  /// Fisher-Yates shuffle of an index container.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Samples k distinct indices from [0, n) in uniformly random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Returns a new Rng seeded from this stream (for spawning sub-streams).
  Rng split();

 private:
  std::array<std::uint64_t, 4> state_;
};

}  // namespace tomo
