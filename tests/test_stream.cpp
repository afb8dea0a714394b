// Unit tier for the tomo::stream layer: bit-exact window splicing
// (MeasurementBlock::append/slice and split_windows), the ingestion ring,
// the cumulative StreamingMeasurement provider, the tomo-obs-stream wire
// format, and the serve() loop end to end on in-memory streams. The
// streamed-vs-batch *inference* equivalence lives in
// tests/test_streaming_fast.cpp; this file pins the plumbing under it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corr/model_factory.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "stream/obs_stream.hpp"
#include "stream/serve.hpp"
#include "stream/streaming_measurement.hpp"
#include "stream/window_ring.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::stream {
namespace {

/// A dense-ish random block with ragged tail words (snapshot_count not a
/// multiple of 64) so the shifted splice paths are exercised.
sim::MeasurementBlock random_block(std::size_t paths, std::size_t snapshots,
                                   std::uint64_t seed) {
  sim::MeasurementBlock block =
      sim::MeasurementBlock::all_good(paths, snapshots);
  Rng rng(seed);
  for (std::size_t p = 0; p < paths; ++p) {
    for (std::size_t n = 0; n < snapshots; ++n) {
      if (rng.uniform() < 0.35) {
        block.good_row(p)[n / 64] &= ~(std::uint64_t{1} << (n % 64));
      }
    }
  }
  block.recount();
  return block;
}

void expect_blocks_identical(const sim::MeasurementBlock& a,
                             const sim::MeasurementBlock& b,
                             const std::string& what) {
  ASSERT_EQ(a.path_count, b.path_count) << what;
  ASSERT_EQ(a.snapshot_count, b.snapshot_count) << what;
  EXPECT_EQ(a.good_bits, b.good_bits) << what;
  EXPECT_EQ(a.good_counts, b.good_counts) << what;
}

TEST(MeasurementBlockSplice, AppendOfSlicesRebuildsAnyPartition) {
  // 197 spans 4 words with a ragged tail; the window sizes cover shift 0,
  // shifts that cross word boundaries, a one-snapshot stream, and windows
  // larger than the block.
  const sim::MeasurementBlock block = random_block(5, 197, 0x5eed);
  for (std::size_t window : {1ul, 7ul, 64ul, 97ul, 128ul, 197ul, 1000ul}) {
    sim::MeasurementBlock rebuilt;
    for (const sim::MeasurementBlock& w : split_windows(block, window)) {
      rebuilt.append(w);
    }
    expect_blocks_identical(block, rebuilt,
                            "window=" + std::to_string(window));
  }
}

TEST(MeasurementBlockSplice, SliceMatchesPerBitExtraction) {
  const sim::MeasurementBlock block = random_block(3, 150, 0xbeef);
  const sim::MeasurementBlock part = block.slice(33, 90);
  ASSERT_EQ(part.path_count, 3u);
  ASSERT_EQ(part.snapshot_count, 90u);
  for (std::size_t p = 0; p < 3; ++p) {
    std::size_t good = 0;
    for (std::size_t n = 0; n < 90; ++n) {
      const std::size_t src = 33 + n;
      const bool expected =
          (block.good_row(p)[src / 64] >> (src % 64)) & 1u;
      const bool got = (part.good_row(p)[n / 64] >> (n % 64)) & 1u;
      ASSERT_EQ(got, expected) << "path " << p << " snapshot " << n;
      good += expected ? 1 : 0;
    }
    EXPECT_EQ(part.good_counts[p], good) << "path " << p;
    // Tail bits beyond snapshot_count must be cleared (90 % 64 = 26).
    const std::uint64_t tail = part.good_row(p)[part.words_per_path() - 1];
    EXPECT_EQ(tail & ~part.word_mask(part.words_per_path() - 1), 0u);
  }
}

TEST(MeasurementBlockSplice, AppendToEmptyCopiesAndCountsAdd) {
  const sim::MeasurementBlock block = random_block(4, 130, 0xabc);
  sim::MeasurementBlock grown;
  grown.append(block.slice(0, 70));
  ASSERT_EQ(grown.snapshot_count, 70u);
  grown.append(block.slice(70, 60));
  expect_blocks_identical(block, grown, "two-part splice");
}

TEST(MeasurementBlockSplice, AppendRejectsPathCountMismatch) {
  sim::MeasurementBlock a = sim::MeasurementBlock::all_good(3, 10);
  const sim::MeasurementBlock b = sim::MeasurementBlock::all_good(4, 10);
  EXPECT_THROW(a.append(b), Error);
}

TEST(WindowRing, DeliversInOrderAcrossThreads) {
  WindowRing ring(2);  // smaller than the window count: push must block
  const sim::MeasurementBlock block = random_block(2, 640, 0x11);
  const std::vector<sim::MeasurementBlock> windows =
      split_windows(block, 64);
  ASSERT_EQ(windows.size(), 10u);

  std::thread producer([&] {
    for (const sim::MeasurementBlock& w : windows) {
      ASSERT_TRUE(ring.push(sim::MeasurementBlock(w)));
    }
    ring.close();
  });
  std::vector<sim::MeasurementBlock> received;
  while (auto w = ring.pop()) received.push_back(std::move(*w));
  producer.join();

  ASSERT_EQ(received.size(), windows.size());
  for (std::size_t k = 0; k < windows.size(); ++k) {
    expect_blocks_identical(windows[k], received[k],
                            "window " + std::to_string(k));
  }
  EXPECT_FALSE(ring.pop().has_value()) << "closed ring stays drained";
}

TEST(WindowRing, CloseUnblocksProducerAndRejectsPush) {
  WindowRing ring(1);
  ASSERT_TRUE(ring.push(sim::MeasurementBlock::all_good(1, 8)));
  std::atomic<bool> second_push_returned{false};
  std::thread producer([&] {
    // Ring is full: this blocks until close(), then reports rejection.
    EXPECT_FALSE(ring.push(sim::MeasurementBlock::all_good(1, 8)));
    second_push_returned = true;
  });
  ring.close();
  producer.join();
  EXPECT_TRUE(second_push_returned);
  // The window accepted before close is still deliverable.
  EXPECT_TRUE(ring.pop().has_value());
  EXPECT_FALSE(ring.pop().has_value());
}

TEST(StreamingMeasurement, PrefixQueriesMatchBatchProviderExactly) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  sim::SimulatorConfig config;
  config.snapshots = 500;
  config.seed = 21;
  const sim::SimulationResult result =
      sim::simulate(sys.graph, sys.paths, *model, config);

  StreamingMeasurement streaming(result.measurement.path_count);
  EXPECT_TRUE(streaming.block().empty());
  std::size_t ingested = 0;
  for (const sim::MeasurementBlock& w :
       split_windows(result.measurement, 130)) {
    streaming.append(w);
    ingested += w.snapshot_count;
    // The cumulative block grown in place is the batch slice bit for bit,
    // so the batch provider over the same prefix answers every harvest
    // query with the same doubles.
    const sim::MeasurementBlock slice = result.measurement.slice(0, ingested);
    ASSERT_EQ(streaming.block().snapshot_count, slice.snapshot_count);
    ASSERT_EQ(streaming.block().path_count, slice.path_count);
    ASSERT_EQ(streaming.block().good_bits, slice.good_bits);
    ASSERT_EQ(streaming.block().good_counts, slice.good_counts);
    const sim::EmpiricalMeasurement batch(slice);
    ASSERT_EQ(streaming.sample_count(), batch.sample_count());
    for (sim::PathId p = 0; p < streaming.path_count(); ++p) {
      ASSERT_EQ(streaming.good_prob(p), batch.good_prob(p));
      for (sim::PathId q = p + 1; q < streaming.path_count(); ++q) {
        ASSERT_EQ(streaming.pair_good_prob(p, q),
                  batch.pair_good_prob(p, q));
      }
    }
  }
  EXPECT_EQ(streaming.window_count(), 4u);
  EXPECT_EQ(ingested, 500u);
}

TEST(ObsStream, WindowRoundTripIsBitIdentical) {
  const sim::MeasurementBlock block = random_block(4, 300, 0x77);
  const std::vector<sim::MeasurementBlock> windows =
      split_windows(block, 97);  // 97, 97, 97, 9 — ragged tail window

  std::stringstream wire;
  ObsStreamWriter writer(wire, block.path_count);
  for (const sim::MeasurementBlock& w : windows) writer.write_window(w);
  writer.close();

  ObsStreamReader reader(wire);
  std::vector<sim::MeasurementBlock> received;
  while (auto w = reader.next()) received.push_back(std::move(*w));
  EXPECT_TRUE(reader.finished());
  EXPECT_FALSE(reader.batch_format());
  ASSERT_EQ(received.size(), windows.size());
  for (std::size_t k = 0; k < windows.size(); ++k) {
    expect_blocks_identical(windows[k], received[k],
                            "window " + std::to_string(k));
  }
}

TEST(ObsStream, ReaderAcceptsClassicBatchFilesAsOneWindow) {
  const sim::MeasurementBlock block = random_block(3, 190, 0x99);
  std::stringstream wire;
  write_observations(wire, block);

  ObsStreamReader reader(wire);
  const auto window = reader.next();
  ASSERT_TRUE(window.has_value());
  EXPECT_TRUE(reader.batch_format());
  expect_blocks_identical(block, *window, "batch replay");
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.finished());
}

TEST(ObsStream, EofMidWindowIsRetryableNotFatal) {
  const sim::MeasurementBlock block = random_block(2, 64, 0x31);
  std::stringstream full;
  ObsStreamWriter writer(full, block.path_count);
  writer.write_window(block);
  const std::string wire = full.str();

  // Feed a prefix that ends mid-window (no `end` yet): next() must report
  // "nothing complete" without failing or consuming partial state...
  std::stringstream tail;
  tail.str(wire.substr(0, wire.size() / 2));
  ObsStreamReader reader(tail);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.finished());

  // ...and once the rest of the bytes land (the producer kept writing),
  // the same reader picks up where it left off.
  tail.clear();
  const auto pos = tail.tellg();
  std::string grown = tail.str();
  grown += wire.substr(wire.size() / 2);
  tail.str(grown);
  tail.seekg(pos);
  const auto window = reader.next();
  ASSERT_TRUE(window.has_value());
  expect_blocks_identical(block, *window, "resumed window");
}

TEST(ObsStream, MalformedInputFailsWithLineNumbers) {
  {
    std::stringstream wire("bogus-header\n");
    ObsStreamReader reader(wire);
    EXPECT_THROW(reader.next(), Error);
  }
  {
    std::stringstream wire(
        "tomo-obs-stream v1\npaths 2\nwindow 10\ncongested 5 0\nend\n");
    ObsStreamReader reader(wire);
    EXPECT_THROW(reader.next(), Error) << "path id out of range";
  }
  {
    std::stringstream wire(
        "tomo-obs-stream v1\npaths 2\nwindow 4\ncongested 0 7\nend\n");
    ObsStreamReader reader(wire);
    EXPECT_THROW(reader.next(), Error) << "snapshot id out of range";
  }
  {
    std::stringstream wire("tomo-obs-stream v1\npaths 2\nclose\nwindow 4\n");
    ObsStreamReader reader(wire);
    EXPECT_THROW(
        {
          while (reader.next().has_value()) {
          }
        },
        Error)
        << "window after close";
  }
}

/// A header whose bit block (paths x ceil(snapshots / 64) words) no vector
/// could hold is rejected at its own line, before anything is allocated —
/// the classic dimension line as well as the stream's paths and window
/// lines.
TEST(ObsStream, OversizedHeadersFailBeforeAllocating) {
  const auto expect_rejected = [](const std::string& wire,
                                  const std::string& line) {
    std::stringstream is(wire);
    ObsStreamReader reader(is);
    try {
      while (reader.next().has_value()) {
      }
      ADD_FAILURE() << "accepted: " << wire;
    } catch (const Error& e) {
      EXPECT_NE(e.message().find(line), std::string::npos) << e.message();
    }
  };
  expect_rejected(
      "tomo-observations v1\npaths 18446744073709551615 snapshots 5\n",
      "line 2:");
  expect_rejected("tomo-obs-stream v1\npaths 18446744073709551615\n",
                  "line 2:");
  expect_rejected(
      "tomo-obs-stream v1\npaths 1048576\nwindow 18446744073709551615\n",
      "line 3:");
}

/// serve() end to end on in-memory streams: a tiny scenario's trace is
/// replayed through the full daemon loop (producer thread + ring +
/// StreamingInference) and must emit one JSON line per window,
/// byte-identical across jobs values.
TEST(Serve, EmitsOneDeterministicJsonLinePerWindow) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  sim::SimulatorConfig config;
  config.snapshots = 400;
  config.seed = 33;
  const sim::SimulationResult result =
      sim::simulate(sys.graph, sys.paths, *model, config);

  std::stringstream wire;
  ObsStreamWriter writer(wire, result.measurement.path_count);
  for (const sim::MeasurementBlock& w :
       split_windows(result.measurement, 150)) {
    writer.write_window(w);
  }
  writer.close();
  const std::string bytes = wire.str();

  const auto run = [&](std::size_t jobs) {
    std::stringstream input(bytes);
    std::stringstream output;
    ServeOptions options;
    options.streaming.inference.solver.jobs = jobs;
    const ServeReport report =
        serve(input, output, sys.graph, sys.paths, sys.sets, options);
    EXPECT_EQ(report.windows, 3u);  // 150 + 150 + 100
    EXPECT_EQ(report.snapshots, 400u);
    // Every candidate is usable from window 0 on, so the later windows
    // replay its harvest.
    EXPECT_EQ(report.replayed_windows, 2u);
    return output.str();
  };
  const std::string serial = run(1);
  const std::string parallel = run(3);
  EXPECT_EQ(serial, parallel) << "serve stdout must be jobs-invariant";

  // Three lines, each a {"window":k,...} object in arrival order.
  std::stringstream lines(serial);
  std::string line;
  std::size_t k = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("{\"window\":" + std::to_string(k), 0), 0u)
        << line;
    EXPECT_EQ(line.back(), '}') << line;
    ++k;
  }
  EXPECT_EQ(k, 3u);
}

/// A consumer closing the output (EPIPE with SIGPIPE ignored surfaces
/// as a failed stream) must stop the loop cleanly after the failed
/// window — flagged on the report, producer joined — not kill the
/// process or spin on a dead pipe.
TEST(Serve, ClosedOutputStopsTheLoopAndIsReported) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  sim::SimulatorConfig config;
  config.snapshots = 400;
  config.seed = 35;
  const sim::SimulationResult result =
      sim::simulate(sys.graph, sys.paths, *model, config);

  std::stringstream input;
  ObsStreamWriter writer(input, result.measurement.path_count);
  for (const sim::MeasurementBlock& w :
       split_windows(result.measurement, 100)) {
    writer.write_window(w);
  }
  writer.close();

  std::stringstream output;
  output.setstate(std::ios::failbit);  // consumer already gone
  const ServeReport report =
      serve(input, output, sys.graph, sys.paths, sys.sets, {});
  EXPECT_TRUE(report.output_closed);
  EXPECT_EQ(report.windows, 1u);  // the window whose write failed
}

/// Stopping at max_windows closes the ring and joins the producer, whether
/// it is blocked on the full ring or has already failed on input past the
/// last window served: an error in input no served window needed is not
/// the consumer's.
TEST(Serve, MaxWindowsStopsEarlyAndStillJoinsTheProducer) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  sim::SimulatorConfig config;
  config.snapshots = 1200;
  config.seed = 34;
  const sim::SimulationResult result =
      sim::simulate(sys.graph, sys.paths, *model, config);

  // 24 windows, more than the ring holds: the producer blocks.
  std::stringstream input;
  ObsStreamWriter writer(input, result.measurement.path_count);
  for (const sim::MeasurementBlock& w :
       split_windows(result.measurement, 50)) {
    writer.write_window(w);
  }
  writer.close();

  std::stringstream output;
  ServeOptions options;
  options.max_windows = 3;
  const ServeReport report =
      serve(input, output, sys.graph, sys.paths, sys.sets, options);
  EXPECT_EQ(report.windows, 3u);
  EXPECT_EQ(report.snapshots, 150u);

  // Three windows, then a malformed line the producer reads ahead into.
  std::stringstream broken_wire;
  ObsStreamWriter broken_writer(broken_wire, result.measurement.path_count);
  for (std::size_t k = 0; k < 3; ++k) {
    broken_writer.write_window(result.measurement.slice(50 * k, 50));
  }
  broken_wire << "bogus line\n";
  const std::string broken = broken_wire.str();
  const auto serve_broken = [&](std::size_t max_windows) {
    std::stringstream broken_input(broken);
    std::stringstream broken_output;
    options.max_windows = max_windows;
    return serve(broken_input, broken_output, sys.graph, sys.paths,
                 sys.sets, options);
  };
  ServeReport early;
  EXPECT_NO_THROW(early = serve_broken(2));
  EXPECT_EQ(early.windows, 2u);
  EXPECT_EQ(early.snapshots, 100u);
  // A fourth window needs the malformed line: its error propagates.
  EXPECT_THROW(serve_broken(4), Error);
}

/// Tail-mode truncation: when the tailed file shrinks under the daemon
/// (logrotate copytruncate, a recorder restarting and rewriting in
/// place), the producer's offset points into bytes that no longer exist.
/// It must notice via the input_size probe, reopen from the start, and
/// ingest the new contents — not tail a stale offset forever.
TEST(Serve, TailReopensWhenTheInputFileShrinks) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  sim::SimulatorConfig config;
  config.snapshots = 200;
  config.seed = 36;
  const sim::SimulationResult result =
      sim::simulate(sys.graph, sys.paths, *model, config);

  // Phase 1: two 100-snapshot windows, no close marker — a live tail.
  std::stringstream phase1_wire;
  {
    ObsStreamWriter writer(phase1_wire, result.measurement.path_count);
    for (const sim::MeasurementBlock& w :
         split_windows(result.measurement, 100)) {
      writer.write_window(w);
    }
  }
  // Phase 2: the recorder restarted — one 50-snapshot window, then close.
  std::stringstream phase2_wire;
  {
    ObsStreamWriter writer(phase2_wire, result.measurement.path_count);
    writer.write_window(result.measurement.slice(0, 50));
    writer.close();
  }
  const std::string phase1 = phase1_wire.str();
  const std::string phase2 = phase2_wire.str();
  ASSERT_LT(phase2.size(), phase1.size())
      << "phase 2 must be a shrink, not an append";

  const std::string path = ::testing::TempDir() + "serve_truncation.obs";
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << phase1;
  }
  std::ifstream input(path, std::ios::binary);
  ASSERT_TRUE(input.is_open());

  // The probe doubles as the test's actor (it runs on the producer
  // thread, so this stays single-threaded): the first poll records the
  // phase-1 baseline, the second rewrites the file in place and reports
  // the shrunken size.
  std::size_t polls = 0;
  ServeOptions options;
  options.poll_ms = 1;
  options.input_size = [&]() -> long long {
    ++polls;
    if (polls == 2) {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << phase2;
    }
    return static_cast<long long>(std::filesystem::file_size(path));
  };

  std::stringstream output;
  const ServeReport report =
      serve(input, output, sys.graph, sys.paths, sys.sets, options);
  std::filesystem::remove(path);

  EXPECT_EQ(report.truncations, 1u);
  // Both phase-1 windows and the reopened phase-2 window were ingested.
  EXPECT_EQ(report.windows, 3u);
  EXPECT_EQ(report.snapshots, 250u);
  EXPECT_GE(polls, 2u);
}

/// An error in the consumer (here a truth vector of the wrong length,
/// rejected when the first window is scored) must close the ring and join
/// the producer, which is blocked on the full ring, before it propagates.
TEST(Serve, ConsumerErrorStillJoinsTheProducer) {
  auto sys = tomo::testing::figure_1a();
  std::stringstream input;
  ObsStreamWriter writer(input, sys.paths.size());
  for (int k = 0; k < 16; ++k) {  // more windows than the ring holds
    writer.write_window(sim::MeasurementBlock::all_good(sys.paths.size(), 4));
  }
  writer.close();
  const std::vector<double> truth(1, 0.0);  // the topology has 4 links
  ServeOptions options;
  options.truth = &truth;
  std::stringstream output;
  EXPECT_THROW(serve(input, output, sys.graph, sys.paths, sys.sets, options),
               Error);
}

/// A stream whose paths header disagrees with the topology, larger or
/// smaller, fails at the header line with both counts named, before any
/// window reaches inference. serve must still join the producer before the
/// error propagates — destroying a joinable std::thread calls
/// std::terminate.
TEST(Serve, PathCountMismatchThrowsAndJoinsTheProducer) {
  auto sys = tomo::testing::figure_1a();  // 3 paths
  for (const std::string declared : {"10", "2"}) {
    std::stringstream input("tomo-obs-stream v1\npaths " + declared +
                            "\nwindow 4\ncongested 2 0\nend\nwindow 4\n"
                            "end\nclose\n");
    std::stringstream output;
    try {
      serve(input, output, sys.graph, sys.paths, sys.sets, {});
      ADD_FAILURE() << "paths " << declared << ": expected a tomo::Error";
    } catch (const Error& e) {
      const std::string head = "obs-stream line 2: header declares ";
      const std::string tail = " paths but the topology has 3";
      EXPECT_EQ(e.message(), head + declared + tail);
    }
    EXPECT_TRUE(output.str().empty()) << "paths " << declared;
  }
}

}  // namespace
}  // namespace tomo::stream
