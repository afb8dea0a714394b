// The daemon's event loop: tail an observation stream, re-estimate per
// window, emit one JSON line each.
//
// Two threads around a WindowRing (the engine/queue split): the producer
// tails the input — a growing `tomo-obs-stream` file/pipe or a complete
// classic observation file, which it re-slices into the configured window
// schedule — and the consumer (the caller's thread) runs
// StreamingInference and prints. The JSON protocol is deliberately free of
// timings and other nondeterminism, so two runs over the same input are
// byte-identical for any --jobs; latency telemetry lives in the returned
// ServeReport instead.
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "corr/correlation.hpp"
#include "graph/graph.hpp"
#include "graph/path.hpp"
#include "stream/streaming_inference.hpp"

namespace tomo::stream {

struct ServeOptions {
  StreamingOptions streaming;
  /// Window schedule when the input is a complete classic observation
  /// file (stream-format inputs carry their own window boundaries).
  std::size_t window_snapshots = 256;
  /// Tail mode: when > 0 and the input hits EOF without a close marker,
  /// retry every poll_ms milliseconds instead of stopping.
  long poll_ms = 0;
  /// Stop after this many windows (0 = until the stream closes).
  std::size_t max_windows = 0;
  /// Optional per-link true marginals: adds a "mean_err" field per window
  /// (mean absolute error over the potentially congested links so far).
  const std::vector<double>* truth = nullptr;
  /// Tail-mode truncation probe, consulted before each poll retry: returns
  /// the input's current byte size, or -1 when unknown. When the reported
  /// size shrinks, the file was truncated or rewritten in place under the
  /// tail (logrotate copytruncate, a recorder restarting) — the producer
  /// emits a stderr diagnostic and reopens from the start instead of
  /// silently tailing a stale offset. Unset (the default) disables the
  /// check, e.g. for pipes.
  std::function<long long()> input_size;
};

struct ServeReport {
  std::size_t windows = 0;         // windows ingested
  std::size_t usable_windows = 0;  // windows with a solved estimate
  /// Windows that replayed the previous harvest instead of re-harvesting
  /// (WindowEstimate::harvest_replayed).
  std::size_t replayed_windows = 0;
  std::size_t snapshots = 0;       // cumulative snapshots ingested
  double total_seconds = 0.0;      // sum of per-window update times
  double max_window_seconds = 0.0;
  double last_mean_err = -1.0;     // final window's mean_err (-1 = n/a)
  /// The consumer closed the output (EPIPE / stream failure) and the loop
  /// stopped early. Callers ignoring SIGPIPE see this instead of dying —
  /// `head -n 3` on the daemon's stdout is a clean shutdown, not a crash.
  bool output_closed = false;
  /// Times the producer detected a shrunken input and reopened from the
  /// start (see ServeOptions::input_size).
  std::size_t truncations = 0;
};

/// One line of the daemon's stdout protocol (no trailing newline).
/// `mean_err` < 0 omits the field. Doubles print with %.17g, so equal bits
/// give equal bytes — the cross-jobs identity contract. `refined` is the
/// size of the harvest's refined_links: the structural links plus every
/// link the demotion round found uncovered, some of which may already have
/// been alone in their set (core::RefinedHarvest::refined_links).
std::string window_json(const WindowEstimate& estimate, double mean_err);

/// Runs the loop until the stream closes (or max_windows). Inference
/// errors propagate as tomo::Error, and so do reader errors on input the
/// loop waited for; past max_windows or a closed output, a reader error
/// on input the producer read ahead is dropped.
ServeReport serve(std::istream& input, std::ostream& output,
                  const graph::Graph& g,
                  const std::vector<graph::Path>& paths,
                  const corr::CorrelationSets& declared,
                  const ServeOptions& options);

}  // namespace tomo::stream
