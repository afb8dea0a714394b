// Micro-benchmark for the util::bitops kernel layer: every kernel timed
// scalar vs the runtime-dispatched table, at the shapes the registry
// actually produces (2000-snapshot rows = 31.25 words, ragged tail
// included; waxman-full path counts for the snapshot-major gather), plus
// the end-to-end bit-transposed MeasurementBlock::resample. Emits one
// table row per (kernel, shape) with ns/op for both tables and the
// speedup, and the same numbers as JSON metrics
// (BENCH_micro_bitops.json) for cross-commit comparison.
//
// Unlike the micro_* Google-Benchmark binaries this one builds
// unconditionally (bench::Run only), so CI always has kernel-level
// telemetry next to the macro benches. Timing numbers on stdout mean this
// binary is *not* part of the force-scalar byte-identity cmp set.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/measurement_block.hpp"
#include "util/bitops.hpp"
#include "util/rng.hpp"

namespace tomo {
namespace {

std::vector<std::uint64_t> random_words(Rng& rng, std::size_t words) {
  std::vector<std::uint64_t> out(words);
  for (std::uint64_t& w : out) w = rng();
  return out;
}

/// Times `body` (already warmed once) over `iters` runs; ns per run.
template <typename Body>
double time_ns(std::size_t iters, Body&& body) {
  body();  // warm-up: caches, lazy dispatch
  const Stopwatch timer;
  for (std::size_t i = 0; i < iters; ++i) body();
  return timer.seconds() * 1e9 / static_cast<double>(iters);
}

struct Row {
  std::string kernel;
  std::string shape;
  double scalar_ns;
  double simd_ns;
};

}  // namespace

int run_main(int argc, char** argv) {
  Flags flags("micro_bitops",
              "bit-kernel layer: scalar vs dispatched SIMD, per kernel");
  bench::add_common_flags(flags);
  flags.parse(argc, argv);
  bench::Settings settings = bench::settings_from_flags(flags);
  bench::Run run("micro_bitops", settings);

  const util::bitops::Kernels& s = util::bitops::scalar_kernels();
  const util::bitops::Kernels& b = util::bitops::best_kernels();
  Rng rng(settings.seed);
  // Keep every result observable so the timed loops cannot fold away
  // (the kernels are reached through runtime-loaded function pointers, so
  // the optimizer cannot prove them pure and hoist the calls).
  std::size_t sink = 0;
  std::vector<Row> rows;

  // Word widths the registry produces: a sparse 150-snapshot debug run
  // (3 words), the standard 2000-snapshot block (32 words, 16-bit ragged
  // tail), and an internet-scale 8192-snapshot row.
  for (const std::size_t bits : {150u, 2000u, 8192u}) {
    const std::size_t words = (bits + 63) / 64;
    const std::size_t iters = 4'000'000 / std::max<std::size_t>(words, 1);
    const auto a = random_words(rng, words);
    const auto c = random_words(rng, words);
    const std::string shape = std::to_string(bits) + "b";

    rows.push_back(
        {"popcount", shape,
         time_ns(iters, [&] { sink += s.popcount(a.data(), words); }),
         time_ns(iters, [&] { sink += b.popcount(a.data(), words); })});
    rows.push_back(
        {"and_popcount", shape,
         time_ns(iters,
                 [&] { sink += s.and_popcount(a.data(), c.data(), words); }),
         time_ns(iters,
                 [&] { sink += b.and_popcount(a.data(), c.data(), words); })});

    std::vector<std::uint64_t> dst(words + 1, 0);
    for (const unsigned shift : {1u, 17u, 63u}) {
      const std::string sh_shape = shape + "+" + std::to_string(shift);
      rows.push_back(
          {"shift_or", sh_shape,
           time_ns(iters,
                   [&] {
                     s.shift_or(dst.data(), a.data(), words, shift);
                     sink += static_cast<std::size_t>(dst[words - 1]);
                   }),
           time_ns(iters, [&] {
             b.shift_or(dst.data(), a.data(), words, shift);
             sink += static_cast<std::size_t>(dst[words - 1]);
           })});
      rows.push_back(
          {"shift_extract", sh_shape,
           time_ns(iters,
                   [&] {
                     s.shift_extract(dst.data(), a.data(), words, shift,
                                     false);
                     sink += static_cast<std::size_t>(dst[words - 1]);
                   }),
           time_ns(iters, [&] {
             b.shift_extract(dst.data(), a.data(), words, shift, false);
             sink += static_cast<std::size_t>(dst[words - 1]);
           })});
    }
  }

  {
    // The resample gather at waxman-full scale: 2048 snapshot-major rows
    // of 24 words (~1500 paths), 2000 picks per replicate.
    const std::size_t row_words = 24, src_rows = 2048, picks_n = 2000;
    const auto src = random_words(rng, src_rows * row_words);
    std::vector<std::uint32_t> picks(picks_n);
    for (std::uint32_t& p : picks) {
      p = static_cast<std::uint32_t>(rng.below(src_rows));
    }
    std::vector<std::uint64_t> dst(picks_n * row_words, 0);
    rows.push_back(
        {"gather_rows", "2000x24w",
         time_ns(2000,
                 [&] {
                   s.gather_rows(dst.data(), src.data(), row_words,
                                 picks.data(), picks_n);
                   sink += static_cast<std::size_t>(dst.back());
                 }),
         time_ns(2000, [&] {
           b.gather_rows(dst.data(), src.data(), row_words, picks.data(),
                         picks_n);
           sink += static_cast<std::size_t>(dst.back());
         })});
  }

  {
    const auto in = random_words(rng, 64);
    std::uint64_t out[64];
    rows.push_back(
        {"transpose64x64", "64x64",
         time_ns(2'000'000,
                 [&] {
                   s.transpose64x64(in.data(), 1, out, 1);
                   sink += static_cast<std::size_t>(out[63]);
                 }),
         time_ns(2'000'000, [&] {
           b.transpose64x64(in.data(), 1, out, 1);
           sink += static_cast<std::size_t>(out[63]);
         })});
  }

  {
    // End-to-end bit-transposed resample (what the bootstrap replicate
    // loop pays), via TOMO_FORCE_SCALAR-independent direct table use is
    // not possible — resample dispatches through active() — so both
    // timings here use the active table and the row records the
    // replicate-loop (warm scratch) vs one-off (cold scratch) split
    // instead of scalar vs SIMD.
    const std::size_t paths = 400, snaps = 2000;
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
    for (std::uint32_t& p : picks) {
      p = static_cast<std::uint32_t>(rng.below(snaps));
    }
    sim::ResampleScratch warm;
    rows.push_back({"block_resample_400x2000", "cold/warm scratch",
                    time_ns(50,
                            [&] {
                              sink += block.resample(picks).good_counts[0];
                            }),
                    time_ns(200, [&] {
                      sink += block.resample(picks, warm).good_counts[0];
                    })});
  }

  Table table({"kernel", "shape", "scalar_ns", "dispatched_ns", "speedup"});
  for (const Row& r : rows) {
    const double speedup = r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0;
    table.add_row({r.kernel, r.shape, Table::fmt(r.scalar_ns, 1),
                   Table::fmt(r.simd_ns, 1), Table::fmt(speedup, 2)});
    const std::string key = r.kernel + "_" + r.shape;
    run.metric(key + "_scalar_ns", r.scalar_ns)
        .metric(key + "_dispatched_ns", r.simd_ns);
  }
  run.table("bit-kernel micro timings (" + std::string(b.name) +
                " dispatched)",
            table);
  run.metric("sink", static_cast<double>(sink != 0));
  run.finish();
  return 0;
}

}  // namespace tomo

int main(int argc, char** argv) {
  return tomo::bench::guarded_main("micro_bitops", tomo::run_main, argc,
                                   argv);
}
