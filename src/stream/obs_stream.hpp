// Text formats of path observations: the classic complete file and the
// streaming daemon's windowed wire format. '#' comments allowed anywhere.
//
// The classic file decouples measurement from inference: a prober records
// one congested/good bit per (path, snapshot) and ships the file;
// `tomo_cli infer` consumes it later.
//
//   tomo-observations v1
//   paths <P> snapshots <N>
//   congested <path-id> <snapshot-id>...   # one line per path with >=1
//                                          # congested snapshot
//
// The wire format is its tail-able extension: observations arrive as
// self-delimited windows, so a consumer can act on each window the moment
// its `end` marker lands while the producer keeps appending.
//
//   tomo-obs-stream v1
//   paths <P>
//   window <N>                       # N snapshots follow
//   congested <path-id> <snap-id>...   # snap ids relative to the window
//   end
//   window <N> ...                   # any number of windows
//   close                            # optional: no more windows, ever
//
// ObsStreamReader is the one parser of both: a classic file comes out as
// one big window — the replay path: the daemon re-slices it into its own
// window schedule. EOF without `close` is not an error, merely "nothing
// more yet": the reader keeps partial lines buffered, so a caller tailing
// a growing file can clear() the stream and call next() again after more
// bytes arrive. Dimension lines are checked before anything is allocated:
// a block (paths x snapshots, rounded up to whole 64-bit words per path)
// above kMaxBlockBits is rejected at its line, so a hostile header cannot
// make the reader allocate a block no observation will ever fill.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/measurement_block.hpp"

namespace tomo::stream {

/// Largest observation block, in bits, a dimension line may declare:
/// 2^31 (256 MiB), ~200,000 snapshots at hier-10k's ~10.7k paths, far above
/// any window or classic file the tools write.
inline constexpr std::size_t kMaxBlockBits = std::size_t{1} << 31;

/// Writes `block` as a classic `tomo-observations v1` file (the congested
/// bits are the exact complement of its good rows, ragged tails included).
void write_observations(std::ostream& os, const sim::MeasurementBlock& block);
void save_observations(const std::string& filename,
                       const sim::MeasurementBlock& block);

/// Reads a complete trace — a classic file, or a stream whose windows are
/// appended in order — into one block. Throws tomo::Error on malformed
/// input, a trace without observations, or a stream cut off mid-window
/// (e.g. a recording killed mid-write). With `expected_paths` > 0 (the
/// topology's path count), a header declaring any other count is rejected
/// at its line, as ObsStreamReader does.
sim::MeasurementBlock read_trace(std::istream& is,
                                 std::size_t expected_paths = 0);
sim::MeasurementBlock load_trace(const std::string& filename,
                                 std::size_t expected_paths = 0);

class ObsStreamWriter {
 public:
  /// Writes the stream header immediately.
  ObsStreamWriter(std::ostream& os, std::size_t path_count);

  /// Appends one window (flushes, so a tailing consumer sees it whole).
  void write_window(const sim::MeasurementBlock& window);

  /// Appends the `close` marker. No windows may follow.
  void close();

 private:
  std::ostream& os_;
  std::size_t path_count_;
  bool closed_ = false;
};

class ObsStreamReader {
 public:
  /// With `expected_paths` > 0 (the topology's path count), a dimension
  /// line declaring any other count is rejected as soon as it is read.
  explicit ObsStreamReader(std::istream& is, std::size_t expected_paths = 0);

  /// The next complete window, in stream order; nullopt when the stream
  /// has no complete window buffered (EOF mid-stream — retryable — or
  /// after `close`/a delivered batch file).
  std::optional<sim::MeasurementBlock> next();

  /// True once no further window can ever arrive (`close` marker seen, or
  /// the single window of a classic batch file was delivered).
  bool finished() const { return closed_; }

  /// True when the header identified a classic complete observation file
  /// (meaningful once a header line has been consumed).
  bool batch_format() const { return batch_; }

  /// 0 until the dimension line has been parsed.
  std::size_t path_count() const { return paths_; }

  /// Throws tomo::Error naming the line when the input read so far ends
  /// inside a window or in an unterminated line. A tailing caller waits
  /// for more bytes in that state; a whole-file caller has a truncated
  /// trace.
  void require_complete() const;

 private:
  [[noreturn]] void fail(const std::string& what) const;
  void check_block_size(std::size_t paths, std::size_t snapshots) const;
  bool parse_line(std::string line);  // true when a window just completed

  std::istream& is_;
  std::size_t expected_paths_;
  std::size_t line_no_ = 0;
  std::string carry_;  // partial (unterminated) trailing line, tail mode
  bool have_header_ = false;
  bool batch_ = false;
  bool closed_ = false;
  std::size_t paths_ = 0;

  // Window under construction (stream mode) or the whole file (batch),
  // and the line that opened it.
  std::optional<sim::MeasurementBlock> pending_;
  std::size_t pending_line_ = 0;
};

}  // namespace tomo::stream
