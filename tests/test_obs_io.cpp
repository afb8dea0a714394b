// The classic `tomo-observations v1` file through its one writer
// (stream::write_observations) and its one reader (stream::read_trace, on
// top of ObsStreamReader).
#include <gtest/gtest.h>

#include <sstream>

#include "reference/observations.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "stream/obs_stream.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tomo::stream {
namespace {

using reference::PathObservations;

sim::MeasurementBlock round_trip(const sim::MeasurementBlock& block) {
  std::stringstream buffer;
  write_observations(buffer, block);
  return read_trace(buffer);
}

TEST(ObsIo, RoundTripPreservesEveryBit) {
  PathObservations obs(3, 100);
  obs.set_congested(0, 0);
  obs.set_congested(0, 99);
  obs.set_congested(2, 63);
  obs.set_congested(2, 64);
  const PathObservations loaded =
      reference::to_observations(round_trip(reference::to_block(obs)));
  ASSERT_EQ(loaded.path_count(), 3u);
  ASSERT_EQ(loaded.snapshot_count(), 100u);
  for (sim::PathId p = 0; p < 3; ++p) {
    for (std::size_t n = 0; n < 100; ++n) {
      ASSERT_EQ(loaded.congested(p, n), obs.congested(p, n))
          << "path " << p << " snapshot " << n;
    }
  }
}

TEST(ObsIo, RoundTripSimulatedData) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  sim::SimulatorConfig config;
  config.snapshots = 500;
  config.seed = 5;
  const auto result = sim::simulate(sys.graph, sys.paths, *model, config);
  const sim::EmpiricalMeasurement original(result.measurement);
  const sim::EmpiricalMeasurement loaded(round_trip(result.measurement));
  for (sim::PathId p = 0; p < 3; ++p) {
    EXPECT_EQ(loaded.good_count(p), original.good_count(p));
  }
  EXPECT_EQ(loaded.exact_pattern_prob({0, 1}),
            original.exact_pattern_prob({0, 1}));
}

TEST(ObsIo, AllGoodMatrixSerializesCompactly) {
  std::stringstream buffer;
  write_observations(buffer, sim::MeasurementBlock::all_good(2, 50));
  EXPECT_EQ(buffer.str(), "tomo-observations v1\npaths 2 snapshots 50\n");
  const sim::MeasurementBlock loaded = read_trace(buffer);
  EXPECT_EQ(loaded.good_counts, (std::vector<std::size_t>{50, 50}));
}

TEST(ObsIo, RejectsMalformedInput) {
  {
    std::stringstream s("paths 2 snapshots 5\n");
    EXPECT_THROW(read_trace(s), Error);  // missing header
  }
  {
    std::stringstream s("tomo-observations v1\n");
    EXPECT_THROW(read_trace(s), Error);  // missing dimensions
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\ncongested 9 0\n");
    EXPECT_THROW(read_trace(s), Error);  // path out of range
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\ncongested 0 7\n");
    EXPECT_THROW(read_trace(s), Error);  // snapshot out of range
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 0 snapshots 5\n");
    EXPECT_THROW(read_trace(s), Error);  // empty matrix
  }
  {
    std::stringstream s(
        "tomo-observations v1\npaths 2 snapshots 5\nbogus 1\n");
    EXPECT_THROW(read_trace(s), Error);  // unknown tag
  }
}

// Simulator output, daemon replay inputs and tomo_cli inputs are the same
// bitmask block on both sides of the file.
TEST(ObsIo, MeasurementBlockRoundTripIsBitIdentical) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  sim::SimulatorConfig config;
  config.snapshots = 197;  // ragged tail word: 197 = 3*64 + 5
  config.seed = 11;
  const auto result = sim::simulate(sys.graph, sys.paths, *model, config);
  const sim::MeasurementBlock& block = result.measurement;

  const sim::MeasurementBlock loaded = round_trip(block);
  ASSERT_EQ(loaded.path_count, block.path_count);
  ASSERT_EQ(loaded.snapshot_count, block.snapshot_count);
  EXPECT_EQ(loaded.good_bits, block.good_bits)
      << "tail words included, bit for bit";
  EXPECT_EQ(loaded.good_counts, block.good_counts);
}

// A whole-trace read of a stream recording must not silently drop a window
// the producer never finished: a missing `end` marker or an unterminated
// last line is an error naming the line.
TEST(ObsIo, StreamCutOffMidWindowIsRejected) {
  const std::string complete =
      "tomo-obs-stream v1\npaths 2\nwindow 3\ncongested 1 2\nend\n";
  {
    std::stringstream s(complete);
    EXPECT_EQ(read_trace(s).snapshot_count, 3u);
  }
  const auto message = [](const std::string& text) {
    std::stringstream s(text);
    try {
      read_trace(s);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message(complete + "window 4\ncongested 0 1\n")
                .find("line 6: window cut off before its 'end' marker"),
            std::string::npos);
  EXPECT_NE(message(complete + "window 4\ncongested 0")
                .find("line 7: input ends in an unterminated line"),
            std::string::npos);
  EXPECT_NE(message(complete + "window 4\ncongested 0 1\nen")
                .find("line 8: input ends in an unterminated line"),
            std::string::npos);
}

// Given the topology's path count, a whole-trace read rejects a header
// declaring any other count at its line, in either format, with both
// counts named — not later at a path id or a block append.
TEST(ObsIo, HeaderForAnotherTopologyIsRejectedAtItsLine) {
  const auto message = [](const std::string& text) {
    std::stringstream s(text);
    try {
      read_trace(s, 3);
    } catch (const Error& e) {
      return e.message();
    }
    return std::string("no error");
  };
  const auto expected = [](const std::string& declared) {
    const std::string tail = " paths but the topology has 3";
    return "obs-stream line 2: header declares " + declared + tail;
  };
  const std::string window = "window 4\ncongested 1 0\nend\n";
  EXPECT_EQ(message("tomo-obs-stream v1\npaths 10\n" + window), expected("10"));
  EXPECT_EQ(message("tomo-obs-stream v1\npaths 2\n" + window), expected("2"));
  EXPECT_EQ(message("tomo-observations v1\npaths 2 snapshots 4\n"),
            expected("2"));
  std::stringstream matching("tomo-obs-stream v1\npaths 3\n" + window);
  EXPECT_EQ(read_trace(matching, 3).snapshot_count, 4u);
}

// A dimension line is capped before its block is allocated: a 44-byte
// stream header once asked for an 870-path x 8,000,000-snapshot block
// (834 MB). Just over kMaxBlockBits fails at its line in either format;
// exactly at the cap would be accepted, and an ordinary header still reads.
TEST(ObsIo, BlockOverTheCapIsRejectedAtItsLine) {
  const auto message = [](const std::string& text) {
    std::stringstream s(text);
    try {
      read_trace(s);
    } catch (const Error& e) {
      return e.message();
    }
    return std::string("no error");
  };
  const std::size_t paths = 1024;
  const std::size_t at_cap = kMaxBlockBits / paths;  // whole words per path
  const std::string over = std::to_string(at_cap + 1);
  const std::string rejected = "observation block of 1024 paths x " + over +
                               " snapshots is over the 256 MiB block cap";
  EXPECT_EQ(message("tomo-obs-stream v1\npaths 1024\nwindow " + over + "\n"),
            "obs-stream line 3: " + rejected);
  EXPECT_EQ(message("tomo-observations v1\n# recorded elsewhere\npaths 1024 "
                    "snapshots " + over + "\n"),
            "obs-stream line 3: " + rejected);
  EXPECT_EQ(message("tomo-obs-stream v1\npaths 870\nwindow 8000000\n"),
            "obs-stream line 3: observation block of 870 paths x 8000000 "
            "snapshots is over the 256 MiB block cap");
  std::stringstream ordinary(
      "tomo-observations v1\npaths 1024 snapshots 5000\ncongested 7 4999\n");
  const sim::MeasurementBlock block = read_trace(ordinary);
  EXPECT_EQ(block.snapshot_count, 5000u);
  EXPECT_EQ(block.good_counts[7], 4999u);
}

TEST(ObsIo, IgnoresCommentsAndBlankLines) {
  std::stringstream s(
      "# recorded by prober\n\ntomo-observations v1\n"
      "paths 1 snapshots 4  # dims\ncongested 0 1 3\n");
  const PathObservations loaded = reference::to_observations(read_trace(s));
  EXPECT_TRUE(loaded.congested(0, 1));
  EXPECT_TRUE(loaded.congested(0, 3));
  EXPECT_FALSE(loaded.congested(0, 0));
}

}  // namespace
}  // namespace tomo::stream
