// AVX2 implementations of the bit-kernel table. This translation unit is
// the only one compiled with -mavx2 (see src/util/CMakeLists.txt); it is
// reached exclusively through the runtime-dispatched table in bitops.cpp,
// so building it does not raise the binary's baseline ISA.
//
// Popcounts use the vpshufb nibble-LUT + vpsadbw reduction (Mula): each
// 256-bit block contributes four exact 64-bit partial sums, accumulated
// in lanes and folded at the end — integer addition commutes, so the
// result is bitwise the scalar table's on every input.
#include "util/bitops.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>
#include <cstring>

namespace tomo::util::bitops {
namespace {

inline __m256i popcount_bytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

inline std::size_t fold_sums(__m256i sums) {
  return static_cast<std::size_t>(_mm256_extract_epi64(sums, 0)) +
         static_cast<std::size_t>(_mm256_extract_epi64(sums, 1)) +
         static_cast<std::size_t>(_mm256_extract_epi64(sums, 2)) +
         static_cast<std::size_t>(_mm256_extract_epi64(sums, 3));
}

std::size_t avx2_popcount(const std::uint64_t* w, std::size_t words) {
  __m256i sums = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(w + i));
    sums = _mm256_add_epi64(
        sums, _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256()));
  }
  std::size_t count = fold_sums(sums);
  for (; i < words; ++i) {
    count += static_cast<std::size_t>(std::popcount(w[i]));
  }
  return count;
}

std::size_t avx2_and_popcount(const std::uint64_t* a, const std::uint64_t* b,
                              std::size_t words) {
  __m256i sums = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    const __m256i v = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
    sums = _mm256_add_epi64(
        sums, _mm256_sad_epu8(popcount_bytes(v), _mm256_setzero_si256()));
  }
  std::size_t count = fold_sums(sums);
  for (; i < words; ++i) {
    count += static_cast<std::size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

void avx2_copy_words(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t words) {
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(dst + i),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i)));
  }
  for (; i < words; ++i) {
    dst[i] = src[i];
  }
}

void avx2_gather_rows(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t row_words, const std::uint32_t* indices,
                      std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    avx2_copy_words(dst + i * row_words, src + indices[i] * row_words,
                    row_words);
  }
}

void avx2_shift_or(std::uint64_t* dst, const std::uint64_t* src,
                   std::size_t words, unsigned shift) {
  if (words == 0) return;
  dst[0] |= src[0] << shift;
  std::size_t w = 1;
  if (words < 8) {
    // Below two vector blocks the shift-count setup costs more than it
    // saves; stay scalar (bitwise identical either way).
    for (; w < words; ++w) {
      dst[w] |= (src[w] << shift) | (src[w - 1] >> (64 - shift));
    }
    return;
  }
  const __m128i s = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m128i inv = _mm_cvtsi32_si128(static_cast<int>(64 - shift));
  for (; w + 4 <= words; w += 4) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    const __m256i prev =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w - 1));
    const __m256i v = _mm256_or_si256(_mm256_sll_epi64(cur, s),
                                      _mm256_srl_epi64(prev, inv));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(d, v));
  }
  for (; w < words; ++w) {
    dst[w] |= (src[w] << shift) | (src[w - 1] >> (64 - shift));
  }
}

void avx2_shift_extract(std::uint64_t* dst, const std::uint64_t* src,
                        std::size_t words, unsigned shift, bool read_tail) {
  if (words == 0) return;
  std::size_t w = 0;
  if (words < 8) {
    for (; w + 1 < words; ++w) {
      dst[w] = (src[w] >> shift) | (src[w + 1] << (64 - shift));
    }
    dst[words - 1] = src[words - 1] >> shift;
    if (read_tail) {
      dst[words - 1] |= src[words] << (64 - shift);
    }
    return;
  }
  const __m128i s = _mm_cvtsi32_si128(static_cast<int>(shift));
  const __m128i inv = _mm_cvtsi32_si128(static_cast<int>(64 - shift));
  // The vector loop reads src[w+1 .. w+4], so it stops a word early; the
  // scalar remainder handles the last in-window words and the tail read.
  for (; w + 5 <= words; w += 4) {
    const __m256i cur =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
    const __m256i next =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w + 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                        _mm256_or_si256(_mm256_srl_epi64(cur, s),
                                        _mm256_sll_epi64(next, inv)));
  }
  for (; w + 1 < words; ++w) {
    dst[w] = (src[w] >> shift) | (src[w + 1] << (64 - shift));
  }
  dst[words - 1] = src[words - 1] >> shift;
  if (read_tail) {
    dst[words - 1] |= src[words] << (64 - shift);
  }
}

void avx2_transpose64x64(const std::uint64_t* in, std::size_t in_stride,
                         std::uint64_t* out, std::size_t out_stride) {
  alignas(32) std::uint64_t x[64];
  for (unsigned r = 0; r < 64; ++r) {
    x[r] = in[r * in_stride];
  }
  // Same masked-swap passes as the scalar kernel; for j >= 4 the four
  // consecutive low-group rows form one 256-bit lane set, so each swap
  // processes four row pairs at once. The j = 2 and j = 1 passes pair
  // lanes within a vector; they are a small share of the work and stay
  // scalar.
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  unsigned j = 32;
  for (; j >= 4; j >>= 1, m ^= m << j) {
    const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(m));
    const __m128i s = _mm_cvtsi32_si128(static_cast<int>(j));
    for (unsigned k = 0; k < 64; k = (k + j + 4) & ~j) {
      __m256i lo = _mm256_load_si256(reinterpret_cast<__m256i*>(x + k));
      __m256i hi = _mm256_load_si256(reinterpret_cast<__m256i*>(x + k + j));
      const __m256i t = _mm256_and_si256(
          _mm256_xor_si256(_mm256_srl_epi64(lo, s), hi), vm);
      hi = _mm256_xor_si256(hi, t);
      lo = _mm256_xor_si256(lo, _mm256_sll_epi64(t, s));
      _mm256_store_si256(reinterpret_cast<__m256i*>(x + k), lo);
      _mm256_store_si256(reinterpret_cast<__m256i*>(x + k + j), hi);
    }
  }
  for (; j != 0; j >>= 1, m ^= m << j) {
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

constexpr Kernels kAvx2 = {
    "avx2",           avx2_popcount, avx2_and_popcount,  avx2_copy_words,
    avx2_gather_rows, avx2_shift_or, avx2_shift_extract, avx2_transpose64x64,
};

}  // namespace

namespace detail {
const Kernels& avx2_kernels() { return kAvx2; }
}  // namespace detail

}  // namespace tomo::util::bitops

#else
// Built without AVX2 support (TOMO_HAVE_AVX2_TU should not be defined in
// that case); provide nothing — dispatch falls back to scalar.
#endif
