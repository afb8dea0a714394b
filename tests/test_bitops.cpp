// Differential suite for the util::bitops kernel layer.
//
// The layer's contract is exactness: the scalar reference table and the
// runtime-dispatched SIMD table must be *bitwise identical* on every
// input — that is what keeps the repo's bit-identity contracts
// (jobs-invariance, batched-vs-reference, streamed-vs-batch,
// sharded-vs-monolithic) independent of the machine's vector unit. These
// tests pin that contract with randomized inputs over every width in
// [1, 512] bits (all tail residues mod 64), unaligned word offsets, every
// shift in [1, 63], and per-bit reference models for the structural
// kernels (transpose, resample). On a machine without AVX2 (or a
// scalar-only build) best_kernels() == scalar_kernels() and the
// differential half degenerates to a self-check, which is the intended
// fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/measurement_block.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace tomo::util::bitops {
namespace {

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t words) {
  std::vector<std::uint64_t> out(words);
  for (std::uint64_t& w : out) w = rng();
  return out;
}

/// Masks the bits of `words` beyond `bits` (the block tail convention).
void mask_tail(std::vector<std::uint64_t>& words, std::size_t bits) {
  if (bits % 64 != 0) {
    words.back() &= (std::uint64_t{1} << (bits % 64)) - 1;
  }
}

TEST(BitopsDifferential, TablesAreDistinctExactlyWhenSimdIsAvailable) {
  EXPECT_EQ(simd_available(),
            &best_kernels() != &scalar_kernels());
  // active() must be one of the two tables, whatever the env said when it
  // latched.
  EXPECT_TRUE(&active() == &scalar_kernels() || &active() == &best_kernels());
  EXPECT_STREQ(scalar_kernels().name, "scalar");
}

TEST(BitopsDifferential, PopcountFamilyMatchesScalarAcrossAllWidths) {
  const Kernels& s = scalar_kernels();
  const Kernels& b = best_kernels();
  Rng rng(0xb1707);
  for (std::size_t bits = 1; bits <= 512; ++bits) {
    const std::size_t words = (bits + 63) / 64;
    std::vector<std::uint64_t> a = random_words(rng, words);
    std::vector<std::uint64_t> c = random_words(rng, words);
    mask_tail(a, bits);
    mask_tail(c, bits);
    EXPECT_EQ(s.popcount(a.data(), words), b.popcount(a.data(), words))
        << bits;
    EXPECT_EQ(s.and_popcount(a.data(), c.data(), words),
              b.and_popcount(a.data(), c.data(), words))
        << bits;
  }
}

TEST(BitopsDifferential, PopcountMatchesScalarAtUnalignedOffsets) {
  const Kernels& s = scalar_kernels();
  const Kernels& b = best_kernels();
  Rng rng(0x0ff5e7);
  const std::vector<std::uint64_t> buf = random_words(rng, 64);
  for (std::size_t offset = 0; offset < 4; ++offset) {
    for (std::size_t words : {1u, 3u, 4u, 7u, 11u, 32u}) {
      const std::uint64_t* a = buf.data() + offset;
      const std::uint64_t* c = buf.data() + offset + 17;
      EXPECT_EQ(s.popcount(a, words), b.popcount(a, words))
          << offset << " " << words;
      EXPECT_EQ(s.and_popcount(a, c, words), b.and_popcount(a, c, words))
          << offset << " " << words;
    }
  }
}

TEST(BitopsDifferential, CopyAndGatherMatchScalar) {
  const Kernels& s = scalar_kernels();
  const Kernels& b = best_kernels();
  Rng rng(0xc09d);
  for (std::size_t row_words : {1u, 2u, 3u, 5u, 8u, 13u}) {
    const std::size_t rows = 37;
    const std::vector<std::uint64_t> src = random_words(rng, rows * row_words);
    std::vector<std::uint32_t> indices(61);
    for (std::uint32_t& idx : indices) {
      idx = static_cast<std::uint32_t>(rng.below(rows));
    }
    std::vector<std::uint64_t> got_s(indices.size() * row_words, 0);
    std::vector<std::uint64_t> got_b(indices.size() * row_words, 0);
    s.gather_rows(got_s.data(), src.data(), row_words, indices.data(),
                  indices.size());
    b.gather_rows(got_b.data(), src.data(), row_words, indices.data(),
                  indices.size());
    EXPECT_EQ(got_s, got_b) << row_words;

    std::vector<std::uint64_t> copy_b(src.size(), 0);
    b.copy_words(copy_b.data(), src.data(), src.size());
    EXPECT_EQ(copy_b, src) << row_words;
  }
}

TEST(BitopsDifferential, ShiftOrMatchesScalarForEveryShift) {
  const Kernels& s = scalar_kernels();
  const Kernels& b = best_kernels();
  Rng rng(0x5f0);
  for (unsigned shift = 1; shift <= 63; ++shift) {
    for (std::size_t words : {1u, 2u, 4u, 5u, 9u, 16u}) {
      const std::vector<std::uint64_t> src = random_words(rng, words);
      std::vector<std::uint64_t> dst_s = random_words(rng, words);
      std::vector<std::uint64_t> dst_b = dst_s;
      s.shift_or(dst_s.data(), src.data(), words, shift);
      b.shift_or(dst_b.data(), src.data(), words, shift);
      EXPECT_EQ(dst_s, dst_b) << "shift=" << shift << " words=" << words;
    }
  }
}

TEST(BitopsDifferential, ShiftExtractMatchesScalarForEveryShift) {
  const Kernels& s = scalar_kernels();
  const Kernels& b = best_kernels();
  Rng rng(0x5f1);
  for (unsigned shift = 1; shift <= 63; ++shift) {
    for (std::size_t words : {1u, 2u, 4u, 5u, 9u, 16u}) {
      // One spare word past the window for the read_tail variant.
      const std::vector<std::uint64_t> src = random_words(rng, words + 1);
      for (const bool read_tail : {false, true}) {
        std::vector<std::uint64_t> dst_s(words, 0);
        std::vector<std::uint64_t> dst_b(words, 0);
        s.shift_extract(dst_s.data(), src.data(), words, shift, read_tail);
        b.shift_extract(dst_b.data(), src.data(), words, shift, read_tail);
        EXPECT_EQ(dst_s, dst_b)
            << "shift=" << shift << " words=" << words << " tail="
            << read_tail;
      }
    }
  }
}

TEST(BitopsDifferential, TransposeMatchesPerBitModelAndScalar) {
  const Kernels& s = scalar_kernels();
  const Kernels& b = best_kernels();
  Rng rng(0x764a);
  for (int round = 0; round < 8; ++round) {
    const std::vector<std::uint64_t> in = random_words(rng, 64);
    std::uint64_t expect[64] = {};
    for (unsigned r = 0; r < 64; ++r) {
      for (unsigned c = 0; c < 64; ++c) {
        if ((in[r] >> c) & 1u) {
          expect[c] |= std::uint64_t{1} << r;
        }
      }
    }
    std::uint64_t got_s[64], got_b[64];
    s.transpose64x64(in.data(), 1, got_s, 1);
    b.transpose64x64(in.data(), 1, got_b, 1);
    for (unsigned c = 0; c < 64; ++c) {
      ASSERT_EQ(got_s[c], expect[c]) << "row " << c;
      ASSERT_EQ(got_b[c], expect[c]) << "row " << c;
    }
  }
}

TEST(BitopsDifferential, TransposeIsAnInvolutionWithStrides) {
  const Kernels& b = best_kernels();
  Rng rng(0x764b);
  const std::size_t stride = 3;
  std::vector<std::uint64_t> in(64 * stride);
  for (std::uint64_t& w : in) w = rng();
  std::vector<std::uint64_t> mid(64 * 2, 0);
  std::vector<std::uint64_t> back(64, 0);
  b.transpose64x64(in.data(), stride, mid.data(), 2);
  b.transpose64x64(mid.data(), 2, back.data(), 1);
  for (unsigned r = 0; r < 64; ++r) {
    ASSERT_EQ(back[r], in[r * stride]) << "row " << r;
  }
}

// The rewritten MeasurementBlock::resample (transpose → word gather →
// transpose back) against a per-bit model, across ragged shapes on both
// axes and pick counts different from the source snapshot count.
TEST(BitopsDifferential, BlockResampleMatchesPerBitModel) {
  Rng rng(0x9e5a);
  sim::ResampleScratch scratch;  // shared across cases: re-keys per block
  for (const std::size_t paths : {1u, 3u, 63u, 64u, 65u, 130u}) {
    for (const std::size_t snaps : {1u, 63u, 64u, 65u, 190u}) {
      sim::MeasurementBlock block;
      block.path_count = paths;
      block.snapshot_count = snaps;
      block.good_bits = random_words(rng, paths * block.words_per_path());
      for (sim::PathId p = 0; p < paths; ++p) {
        block.good_row(p)[block.words_per_path() - 1] &=
            block.word_mask(block.words_per_path() - 1);
      }
      block.recount();
      for (const std::size_t pick_count : {1ul, snaps, 2 * snaps + 5}) {
        std::vector<std::uint32_t> picks(pick_count);
        for (std::uint32_t& pick : picks) {
          pick = static_cast<std::uint32_t>(rng.below(snaps));
        }
        const sim::MeasurementBlock got = block.resample(picks, scratch);
        ASSERT_EQ(got.path_count, paths);
        ASSERT_EQ(got.snapshot_count, pick_count);
        sim::MeasurementBlock expect;
        expect.path_count = paths;
        expect.snapshot_count = pick_count;
        expect.good_bits.assign(paths * expect.words_per_path(), 0);
        for (sim::PathId p = 0; p < paths; ++p) {
          for (std::size_t i = 0; i < pick_count; ++i) {
            const std::uint64_t bit =
                (block.good_row(p)[picks[i] / 64] >> (picks[i] % 64)) & 1u;
            expect.good_row(p)[i / 64] |= bit << (i % 64);
          }
        }
        expect.recount();
        ASSERT_EQ(got.good_bits, expect.good_bits)
            << paths << "x" << snaps << " picks=" << pick_count;
        ASSERT_EQ(got.good_counts, expect.good_counts)
            << paths << "x" << snaps << " picks=" << pick_count;
      }
    }
  }
}

TEST(BitopsDifferential, ResampleScratchReuseIsIdenticalToFreshScratch) {
  Rng rng(0x9e5b);
  sim::ResampleScratch reused;
  for (int round = 0; round < 6; ++round) {
    const std::size_t paths = 10 + static_cast<std::size_t>(rng.below(120));
    const std::size_t snaps = 1 + static_cast<std::size_t>(rng.below(200));
    sim::MeasurementBlock block;
    block.path_count = paths;
    block.snapshot_count = snaps;
    block.good_bits = random_words(rng, paths * block.words_per_path());
    for (sim::PathId p = 0; p < paths; ++p) {
      block.good_row(p)[block.words_per_path() - 1] &=
          block.word_mask(block.words_per_path() - 1);
    }
    block.recount();
    std::vector<std::uint32_t> picks(snaps);
    for (std::uint32_t& pick : picks) {
      pick = static_cast<std::uint32_t>(rng.below(snaps));
    }
    // Two replicates from the same block through the reused scratch (the
    // second hits the cached transpose) versus the fresh-scratch overload.
    const sim::MeasurementBlock first = block.resample(picks, reused);
    const sim::MeasurementBlock second = block.resample(picks, reused);
    const sim::MeasurementBlock fresh = block.resample(picks);
    EXPECT_EQ(first.good_bits, fresh.good_bits) << round;
    EXPECT_EQ(second.good_bits, fresh.good_bits) << round;
    EXPECT_EQ(second.good_counts, fresh.good_counts) << round;
  }
}

}  // namespace
}  // namespace tomo::util::bitops
