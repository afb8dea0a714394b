// The simulator → measurement hand-off: path-major good-snapshot bitmasks.
//
// The equation harvest only ever consumes snapshot observations as per-path
// good-bit words (AND + popcount over pairs). MeasurementBlock is exactly
// that representation — one bitmask row per path (bit n = path good in
// snapshot n, tail bits beyond snapshot_count cleared) plus the per-path
// popcounts — produced directly by the simulator, parsed directly by the
// observation reader (stream/obs_stream.hpp), and adopted by
// EmpiricalMeasurement without any re-packing. It is the library's only
// observation representation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/coverage.hpp"
#include "graph/path.hpp"

namespace tomo::sim {

using graph::PathId;
using graph::PathIdSet;

/// Reusable scratch for MeasurementBlock::resample. Holds the
/// snapshot-major bit transpose of the source block — rebuilt only when
/// the source changes, so a bootstrap replicate loop pays the transpose
/// once — plus the snapshot-major gather buffer, so repeat calls allocate
/// nothing after warm-up. A scratch may be reused across source blocks
/// (it re-keys on the source's data pointer and shape) but must not be
/// shared across threads.
struct ResampleScratch {
  std::vector<std::uint64_t> snap_major;  // cached source transpose
  std::vector<std::uint64_t> gathered;    // per-call snapshot-major output
  const std::uint64_t* cached_src = nullptr;
  std::size_t cached_paths = 0;
  std::size_t cached_snapshots = 0;
};

struct MeasurementBlock {
  std::size_t path_count = 0;
  std::size_t snapshot_count = 0;
  /// Path-major good-bit words: row p occupies words_per_path() entries
  /// starting at p * words_per_path(); tail bits are zero.
  std::vector<std::uint64_t> good_bits;
  /// popcount of row p (number of snapshots in which path p was good).
  std::vector<std::size_t> good_counts;

  bool empty() const { return path_count == 0; }

  std::size_t words_per_path() const { return (snapshot_count + 63) / 64; }

  const std::uint64_t* good_row(PathId p) const {
    return good_bits.data() + p * words_per_path();
  }
  std::uint64_t* good_row(PathId p) {
    return good_bits.data() + p * words_per_path();
  }

  /// All-good rows, tail bits cleared, counts = snapshot_count.
  static MeasurementBlock all_good(std::size_t path_count,
                                   std::size_t snapshot_count);

  /// Word whose bits cover snapshots [64*word_index, ...) — all-ones except
  /// for the final word of a row, where bits beyond snapshot_count clear.
  std::uint64_t word_mask(std::size_t word_index) const;

  /// Recomputes good_counts from good_bits (after direct bit writes).
  void recount();

  /// Splices `window` onto the end of this block (same path set; snapshot
  /// n of the window becomes snapshot snapshot_count + n here). Appending
  /// to an empty block copies the window. Bit-exact for any split: a block
  /// rebuilt by appending its own slices in order is identical, words,
  /// tail bits and counts included — the streaming ingestion contract.
  void append(const MeasurementBlock& window);

  /// Extracts snapshots [first, first + count) as a standalone block
  /// (tail bits cleared, counts recomputed).
  MeasurementBlock slice(std::size_t first, std::size_t count) const;

  /// Row selection: path i of the result is path `paths[i]` of this block
  /// (words copied verbatim — snapshot axis untouched, counts carried
  /// over). The sharded-inference hand-off: each shard's measurement is
  /// exactly the monolithic rows of its member paths, so per-path counts
  /// and pair AND+popcounts are bitwise identical to the full block's.
  MeasurementBlock select_paths(std::span<const PathId> paths) const;

  /// Bootstrap resample: snapshot i of the result is snapshot picks[i] of
  /// this block (picks drawn with replacement; every pick < snapshot_count).
  /// Runs bit-transposed: the block is transposed once into snapshot-major
  /// 64x64 tiles (cached in `scratch` across replicates), each pick then
  /// gathers a whole word row instead of one bit per path, and the result
  /// transposes back to path-major — every step a util::bitops kernel, so
  /// the output is bitwise identical across the scalar and SIMD tables.
  MeasurementBlock resample(std::span<const std::uint32_t> picks,
                            ResampleScratch& scratch) const;

  /// Convenience overload owning a throwaway scratch (one-off resamples;
  /// replicate loops should hoist a ResampleScratch instead).
  MeasurementBlock resample(std::span<const std::uint32_t> picks) const;
};

}  // namespace tomo::sim
