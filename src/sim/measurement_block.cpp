#include "sim/measurement_block.hpp"

#include <algorithm>

#include "util/bitops.hpp"
#include "util/error.hpp"

namespace tomo::sim {

namespace {

using util::bitops::Kernels;

/// Words per snapshot-major row (one bit per path).
std::size_t path_words_of(std::size_t path_count) {
  return (path_count + 63) / 64;
}

/// Transposes the path-major block into snapshot-major rows of
/// `path_words` words, 64x64 tile by tile, zero-padding ragged path and
/// snapshot tiles. `out` is sized to a whole number of snapshot tiles so
/// every tile transpose reads and writes full rows; the padded snapshot
/// rows start zero (path-major tail bits are clear by contract) and the
/// padded path bits are staged through a zeroed tile buffer.
void transpose_to_snapshot_major(const MeasurementBlock& block,
                                 const Kernels& k,
                                 std::vector<std::uint64_t>& out) {
  const std::size_t path_words = path_words_of(block.path_count);
  const std::size_t snap_words = block.words_per_path();
  out.assign(snap_words * 64 * path_words, 0);
  std::uint64_t tile[64];
  for (std::size_t pt = 0; pt < path_words; ++pt) {
    const std::size_t first_path = pt * 64;
    const std::size_t rows =
        std::min<std::size_t>(64, block.path_count - first_path);
    for (std::size_t st = 0; st < snap_words; ++st) {
      std::uint64_t* dst = out.data() + st * 64 * path_words + pt;
      if (rows == 64) {
        k.transpose64x64(
            block.good_bits.data() + first_path * snap_words + st,
            snap_words, dst, path_words);
      } else {
        for (std::size_t r = 0; r < rows; ++r) {
          tile[r] = block.good_bits[(first_path + r) * snap_words + st];
        }
        std::fill(tile + rows, tile + 64, 0);
        k.transpose64x64(tile, 1, dst, path_words);
      }
    }
  }
}

}  // namespace

MeasurementBlock MeasurementBlock::all_good(std::size_t path_count,
                                            std::size_t snapshot_count) {
  TOMO_REQUIRE(path_count > 0, "measurement block needs at least one path");
  TOMO_REQUIRE(snapshot_count > 0,
               "measurement block needs at least one snapshot");
  MeasurementBlock block;
  block.path_count = path_count;
  block.snapshot_count = snapshot_count;
  const std::size_t words = block.words_per_path();
  block.good_bits.assign(path_count * words, ~std::uint64_t{0});
  const std::uint64_t tail = block.word_mask(words - 1);
  for (PathId p = 0; p < path_count; ++p) {
    block.good_row(p)[words - 1] = tail;
  }
  block.good_counts.assign(path_count, snapshot_count);
  return block;
}

std::uint64_t MeasurementBlock::word_mask(std::size_t word_index) const {
  if (word_index + 1 < words_per_path() || snapshot_count % 64 == 0) {
    return ~std::uint64_t{0};
  }
  return (std::uint64_t{1} << (snapshot_count % 64)) - 1;
}

void MeasurementBlock::recount() {
  const util::bitops::Kernels& k = util::bitops::active();
  const std::size_t words = words_per_path();
  good_counts.assign(path_count, 0);
  for (PathId p = 0; p < path_count; ++p) {
    good_counts[p] = k.popcount(good_row(p), words);
  }
}

void MeasurementBlock::append(const MeasurementBlock& window) {
  TOMO_REQUIRE(!window.empty(), "cannot append an empty measurement window");
  if (empty()) {
    *this = window;
    return;
  }
  TOMO_REQUIRE(window.path_count == path_count,
               "appended window has a different path count");

  const util::bitops::Kernels& k = util::bitops::active();
  const std::size_t old_count = snapshot_count;
  const std::size_t old_words = words_per_path();
  const std::size_t window_words = window.words_per_path();
  const std::size_t new_count = old_count + window.snapshot_count;
  const std::size_t new_words = (new_count + 63) / 64;
  const std::size_t base = old_count / 64;
  const unsigned shift = static_cast<unsigned>(old_count % 64);

  std::vector<std::uint64_t> merged(path_count * new_words, 0);
  for (PathId p = 0; p < path_count; ++p) {
    const std::uint64_t* old_row = good_bits.data() + p * old_words;
    const std::uint64_t* win_row = window.good_row(p);
    std::uint64_t* row = merged.data() + p * new_words;
    k.copy_words(row, old_row, old_words);
    if (shift == 0) {
      // The old block ended on a word boundary: the window's words land
      // verbatim (the destination words are still zero).
      k.copy_words(row + base, win_row, window_words);
    } else {
      k.shift_or(row + base, win_row, window_words, shift);
      // The final word's spill of high bits into the next word; absent
      // when the merged block ends inside the splice's last word.
      if (base + window_words < new_words) {
        row[base + window_words] |=
            win_row[window_words - 1] >> (64 - shift);
      }
    }
    good_counts[p] += window.good_counts[p];
  }
  good_bits = std::move(merged);
  snapshot_count = new_count;
}

MeasurementBlock MeasurementBlock::slice(std::size_t first,
                                         std::size_t count) const {
  TOMO_REQUIRE(count > 0, "cannot slice an empty snapshot range");
  TOMO_REQUIRE(first + count <= snapshot_count,
               "slice range exceeds the block's snapshots");
  const util::bitops::Kernels& k = util::bitops::active();
  MeasurementBlock out;
  out.path_count = path_count;
  out.snapshot_count = count;
  const std::size_t src_words = words_per_path();
  const std::size_t out_words = out.words_per_path();
  const std::size_t base = first / 64;
  const unsigned shift = static_cast<unsigned>(first % 64);
  const bool read_tail = base + out_words < src_words;
  out.good_bits.resize(path_count * out_words);
  for (PathId p = 0; p < path_count; ++p) {
    const std::uint64_t* src = good_row(p) + base;
    std::uint64_t* dst = out.good_bits.data() + p * out_words;
    if (shift == 0) {
      k.copy_words(dst, src, out_words);
    } else {
      k.shift_extract(dst, src, out_words, shift, read_tail);
    }
    dst[out_words - 1] &= out.word_mask(out_words - 1);
  }
  out.recount();
  return out;
}

MeasurementBlock MeasurementBlock::select_paths(
    std::span<const PathId> paths) const {
  TOMO_REQUIRE(!empty(), "cannot select paths from an empty block");
  TOMO_REQUIRE(!paths.empty(), "path selection needs at least one path");
  const util::bitops::Kernels& k = util::bitops::active();
  MeasurementBlock out;
  out.path_count = paths.size();
  out.snapshot_count = snapshot_count;
  const std::size_t words = words_per_path();
  out.good_bits.resize(paths.size() * words);
  out.good_counts.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    TOMO_REQUIRE(paths[i] < path_count,
                 "path selection index exceeds the block's paths");
    k.copy_words(out.good_bits.data() + i * words, good_row(paths[i]),
                 words);
    out.good_counts[i] = good_counts[paths[i]];
  }
  return out;
}

MeasurementBlock MeasurementBlock::resample(
    std::span<const std::uint32_t> picks, ResampleScratch& scratch) const {
  TOMO_REQUIRE(!empty(), "cannot resample an empty measurement block");
  TOMO_REQUIRE(!picks.empty(), "resample needs at least one pick");
  const util::bitops::Kernels& k = util::bitops::active();
  for (const std::uint32_t pick : picks) {
    TOMO_REQUIRE(pick < snapshot_count,
                 "resample pick exceeds the block's snapshots");
  }

  // Phase 1 — snapshot-major source view, cached across calls: replicate
  // loops re-key on the same block and skip straight to the gather.
  if (scratch.cached_src != good_bits.data() ||
      scratch.cached_paths != path_count ||
      scratch.cached_snapshots != snapshot_count) {
    transpose_to_snapshot_major(*this, k, scratch.snap_major);
    scratch.cached_src = good_bits.data();
    scratch.cached_paths = path_count;
    scratch.cached_snapshots = snapshot_count;
  }

  MeasurementBlock out;
  out.path_count = path_count;
  out.snapshot_count = picks.size();
  const std::size_t path_words = path_words_of(path_count);
  const std::size_t out_words = out.words_per_path();
  const std::size_t padded_rows = out_words * 64;

  // Phase 2 — word gather: output snapshot i is one whole-row copy of
  // snapshot-major row picks[i]. Padding rows (up to the tile boundary)
  // stay zero so the transposed-back tail bits are zero by construction.
  const std::size_t gathered_size = padded_rows * path_words;
  if (scratch.gathered.size() != gathered_size) {
    scratch.gathered.assign(gathered_size, 0);
  } else {
    std::fill(scratch.gathered.begin() +
                  static_cast<std::ptrdiff_t>(picks.size() * path_words),
              scratch.gathered.end(), 0);
  }
  k.gather_rows(scratch.gathered.data(), scratch.snap_major.data(),
                path_words, picks.data(), picks.size());

  // Phase 3 — transpose back to path-major and recount.
  out.good_bits.resize(path_count * out_words);
  out.good_counts.resize(path_count);
  std::uint64_t tile[64];
  for (std::size_t pt = 0; pt < path_words; ++pt) {
    const std::size_t first_path = pt * 64;
    const std::size_t rows =
        std::min<std::size_t>(64, path_count - first_path);
    for (std::size_t st = 0; st < out_words; ++st) {
      const std::uint64_t* src =
          scratch.gathered.data() + st * 64 * path_words + pt;
      if (rows == 64) {
        k.transpose64x64(src, path_words,
                         out.good_bits.data() + first_path * out_words + st,
                         out_words);
      } else {
        k.transpose64x64(src, path_words, tile, 1);
        for (std::size_t r = 0; r < rows; ++r) {
          out.good_bits[(first_path + r) * out_words + st] = tile[r];
        }
      }
    }
  }
  for (PathId p = 0; p < path_count; ++p) {
    out.good_counts[p] =
        k.popcount(out.good_bits.data() + p * out_words, out_words);
  }
  return out;
}

MeasurementBlock MeasurementBlock::resample(
    std::span<const std::uint32_t> picks) const {
  ResampleScratch scratch;
  return resample(picks, scratch);
}

}  // namespace tomo::sim
