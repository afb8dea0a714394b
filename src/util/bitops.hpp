// The bit-kernel layer: one vectorized engine for every bitmask hot loop.
//
// Every bitmask hot path in the codebase — the harvest's AND+popcount
// (sim::EmpiricalMeasurement, the correlation-signature precheck in
// core::build_equations), the bootstrap's bit-transposed resample gather
// (sim::MeasurementBlock::resample), and the streaming/sharded block
// splice/select (MeasurementBlock::append/slice/select_paths) — runs
// through the kernel table below instead of hand-written scalar loops.
//
// Two implementations share the table: a portable scalar reference and an
// x86-64 AVX2 path (compiled into its own translation unit with -mavx2
// when the toolchain supports it; see TOMO_ENABLE_SIMD in the root
// CMakeLists). The active table is selected exactly once at startup by
// CPUID runtime dispatch, overridable with the TOMO_FORCE_SCALAR
// environment variable so CI can pin bit-identity between the paths.
//
// The exactness contract: every kernel is pure integer/bit arithmetic
// with a result that does not depend on evaluation order (popcounts sum
// commutatively, AND/OR/shift are word-local), so the scalar and SIMD
// tables are *bitwise identical* on every input — not merely close. That
// is what lets the repo's bit-identity contracts (jobs-invariance,
// batched-vs-reference, streamed-vs-batch, sharded-vs-monolithic) hold
// across machines with different vector units, and it is pinned by the
// BitopsDifferential test suite.
#pragma once

#include <cstddef>
#include <cstdint>

namespace tomo::util::bitops {

/// One implementation of the kernel set. All pointers are non-null.
struct Kernels {
  /// "scalar" or "avx2"; what tests and telemetry report.
  const char* name;

  /// Sum of popcounts over `words` 64-bit words.
  std::size_t (*popcount)(const std::uint64_t* w, std::size_t words);

  /// popcount(a AND b) over `words` words — the pair_good_prob kernel.
  std::size_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words);

  /// Plain word copy (the block select/gather building block).
  void (*copy_words)(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t words);

  /// Row gather: dst row i (of `row_words` words) = src row indices[i].
  /// The bootstrap resample's snapshot-major gather — every pick copies a
  /// whole word row instead of extracting one bit per path.
  void (*gather_rows)(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t row_words, const std::uint32_t* indices,
                      std::size_t count);

  /// OR-splice at a bit offset (the append kernel), shift in [1, 63]:
  ///   dst[w] |= (src[w] << shift) | (w ? src[w-1] >> (64-shift) : 0)
  /// for w in [0, words). The final spill word src[words-1] >> (64-shift)
  /// is the caller's responsibility (it may fall outside the destination).
  void (*shift_or)(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t words, unsigned shift);

  /// Windowed extract at a bit offset (the slice kernel), shift in [1, 63]:
  ///   dst[w] = (src[w] >> shift) | (src[w+1] << (64-shift))
  /// for w in [0, words), reading src[words] only when `read_tail` (the
  /// caller knows whether a word past the window exists). Tail masking is
  /// the caller's responsibility.
  void (*shift_extract)(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t words, unsigned shift, bool read_tail);

  /// 64x64 bit-block transpose with strided rows: reads the 64 words
  /// in[r * in_stride], writes out[c * out_stride] such that bit c of
  /// input row r becomes bit r of output row c. Exact involution:
  /// transposing twice (with matching strides) restores the input.
  void (*transpose64x64)(const std::uint64_t* in, std::size_t in_stride,
                         std::uint64_t* out, std::size_t out_stride);
};

/// The portable scalar reference table (always available).
const Kernels& scalar_kernels();

/// The best table this binary + CPU supports, ignoring the env override
/// (equals scalar_kernels() when no SIMD TU was compiled in or the CPU
/// lacks the ISA). Differential tests pin this against scalar_kernels().
const Kernels& best_kernels();

/// The table every consumer dispatches through: best_kernels(), unless
/// TOMO_FORCE_SCALAR is set to anything but "" or "0" in the environment,
/// in which case the scalar reference. Selected once, at first use.
const Kernels& active();

/// True when best_kernels() is a SIMD table (regardless of the override).
bool simd_available();

}  // namespace tomo::util::bitops
