#include "util/bitops.hpp"

#include <bit>
#include <cstdlib>
#include <cstring>

namespace tomo::util::bitops {

namespace {

std::size_t scalar_popcount(const std::uint64_t* w, std::size_t words) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < words; ++i) {
    count += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return count;
}

std::size_t scalar_and_popcount(const std::uint64_t* a,
                                const std::uint64_t* b, std::size_t words) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < words; ++i) {
    count += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

void scalar_copy_words(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t words) {
  std::memcpy(dst, src, words * sizeof(std::uint64_t));
}

void scalar_gather_rows(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t row_words, const std::uint32_t* indices,
                        std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    std::memcpy(dst + i * row_words, src + indices[i] * row_words,
                row_words * sizeof(std::uint64_t));
  }
}

void scalar_shift_or(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t words, unsigned shift) {
  if (words == 0) return;
  dst[0] |= src[0] << shift;
  for (std::size_t w = 1; w < words; ++w) {
    dst[w] |= (src[w] << shift) | (src[w - 1] >> (64 - shift));
  }
}

void scalar_shift_extract(std::uint64_t* dst, const std::uint64_t* src,
                          std::size_t words, unsigned shift, bool read_tail) {
  if (words == 0) return;
  for (std::size_t w = 0; w + 1 < words; ++w) {
    dst[w] = (src[w] >> shift) | (src[w + 1] << (64 - shift));
  }
  dst[words - 1] = src[words - 1] >> shift;
  if (read_tail) {
    dst[words - 1] |= src[words] << (64 - shift);
  }
}

/// Hacker's Delight 7-3 adapted to LSB-first columns (bit c of row r is
/// matrix element (r, c)): each pass swaps the high-column block of the
/// low rows with the low-column block of the high rows of every 2j-row
/// group, halving the block size per pass.
void scalar_transpose64x64(const std::uint64_t* in, std::size_t in_stride,
                           std::uint64_t* out, std::size_t out_stride) {
  std::uint64_t x[64];
  for (unsigned r = 0; r < 64; ++r) {
    x[r] = in[r * in_stride];
  }
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((x[k] >> j) ^ x[k + j]) & m;
      x[k + j] ^= t;
      x[k] ^= t << j;
    }
  }
  for (unsigned c = 0; c < 64; ++c) {
    out[c * out_stride] = x[c];
  }
}

constexpr Kernels kScalar = {
    "scalar",
    scalar_popcount,
    scalar_and_popcount,
    scalar_copy_words,
    scalar_gather_rows,
    scalar_shift_or,
    scalar_shift_extract,
    scalar_transpose64x64,
};

bool force_scalar_from_env() {
  const char* env = std::getenv("TOMO_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

#if defined(TOMO_HAVE_AVX2_TU)
namespace detail {
// Defined in bitops_avx2.cpp (compiled with -mavx2).
const Kernels& avx2_kernels();
}  // namespace detail
#endif

const Kernels& scalar_kernels() { return kScalar; }

const Kernels& best_kernels() {
#if defined(TOMO_HAVE_AVX2_TU) && (defined(__GNUC__) || defined(__clang__))
  static const Kernels& best =
      __builtin_cpu_supports("avx2") ? detail::avx2_kernels() : kScalar;
  return best;
#else
  return kScalar;
#endif
}

const Kernels& active() {
  static const Kernels& chosen =
      force_scalar_from_env() ? scalar_kernels() : best_kernels();
  return chosen;
}

bool simd_available() { return &best_kernels() != &scalar_kernels(); }

}  // namespace tomo::util::bitops
