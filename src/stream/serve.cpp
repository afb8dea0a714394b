#include "stream/serve.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/experiment.hpp"
#include "stream/obs_stream.hpp"
#include "stream/window_ring.hpp"
#include "util/error.hpp"

namespace tomo::stream {

namespace {

/// Windows the producer may read ahead of inference.
constexpr std::size_t kRingCapacity = 8;

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

/// Closes the ring and joins the producer when it goes out of scope, so
/// every exit from serve — the stream closing, max_windows, a dead output
/// or an exception — unblocks a producer stuck in push and joins it:
/// destroying a joinable std::thread would call std::terminate.
class ProducerJoin {
 public:
  ProducerJoin(WindowRing& ring, std::thread& producer)
      : ring_(ring), producer_(producer) {}
  ProducerJoin(const ProducerJoin&) = delete;
  ProducerJoin& operator=(const ProducerJoin&) = delete;
  ~ProducerJoin() {
    ring_.close();
    producer_.join();
  }

 private:
  WindowRing& ring_;
  std::thread& producer_;
};

}  // namespace

std::string window_json(const WindowEstimate& estimate, double mean_err) {
  std::string out = "{\"window\":" + std::to_string(estimate.window);
  out += ",\"snapshots\":" + std::to_string(estimate.snapshots);
  out += ",\"usable\":";
  out += estimate.usable ? "true" : "false";
  if (estimate.usable) {
    const core::InferenceResult& inf = estimate.inference;
    out += ",\"equations\":" + std::to_string(inf.system.equations.size());
    out += ",\"rank\":" + std::to_string(inf.system.rank);
    out += ",\"active\":" + std::to_string(inf.active_set.size());
    out += ",\"refined\":" + std::to_string(inf.refined_links.size());
    out += ",\"gram_reused\":";
    out += estimate.gram_reused ? "true" : "false";
    out += ",\"warm_started\":";
    out += estimate.warm_started ? "true" : "false";
    out += ",\"solver\":\"" + inf.solver_detail + "\"";
    if (mean_err >= 0.0) {
      out += ",\"mean_err\":";
      append_double(out, mean_err);
    }
    out += ",\"estimate\":[";
    for (std::size_t k = 0; k < inf.congestion_prob.size(); ++k) {
      if (k) out += ',';
      append_double(out, inf.congestion_prob[k]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

ServeReport serve(std::istream& input, std::ostream& output,
                  const graph::Graph& g,
                  const std::vector<graph::Path>& paths,
                  const corr::CorrelationSets& declared,
                  const ServeOptions& options) {
  WindowRing ring(kRingCapacity);
  std::exception_ptr producer_error;
  std::size_t truncations = 0;  // producer-owned until the join below

  // Producer: tail the input and feed the ring. The reader is touched by
  // this thread only, and rejects a paths header that disagrees with the
  // topology before any window is read.
  std::thread producer([&] {
    try {
      std::optional<ObsStreamReader> reader;
      reader.emplace(input, paths.size());
      long long last_size = -1;
      for (;;) {
        std::optional<sim::MeasurementBlock> window = reader->next();
        if (window.has_value()) {
          if (reader->batch_format()) {
            // A complete classic file: re-slice it into our schedule.
            for (sim::MeasurementBlock& slice :
                 split_windows(*window, options.window_snapshots)) {
              if (!ring.push(std::move(slice))) break;
            }
            break;
          }
          if (!ring.push(std::move(*window))) break;
          continue;
        }
        if (reader->finished()) break;
        // A closed ring means the consumer stopped: nothing to tail for.
        if (options.poll_ms <= 0 || ring.closed()) break;
        input.clear();
        if (options.input_size) {
          const long long size = options.input_size();
          if (size >= 0) {
            if (last_size >= 0 && size < last_size) {
              // The file shrank under the tail: it was truncated or
              // rewritten in place. Our offset points into data that no
              // longer exists — start over on the new contents.
              std::fprintf(stderr,
                           "tomo_daemon: input shrank %lld -> %lld bytes "
                           "(truncated or rewritten); reopening from "
                           "start\n",
                           last_size, size);
              ++truncations;
              input.clear();
              input.seekg(0);
              reader.emplace(input, paths.size());
            }
            last_size = size;
          }
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.poll_ms));
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
    ring.close();
  });

  ServeReport report;
  // The consumer stops when the ring drains (the producer is done), at
  // max_windows, or on a dead output.
  bool drained = false;
  {
    const ProducerJoin join(ring, producer);
    StreamingInference inference(g, paths, declared, options.streaming);
    std::optional<sim::MeasurementBlock> window;
    while ((window = ring.pop())) {
      const WindowEstimate estimate = inference.push_window(*window);
      ++report.windows;
      if (estimate.harvest_replayed) ++report.replayed_windows;
      report.snapshots = estimate.snapshots;
      report.total_seconds += estimate.seconds;
      report.max_window_seconds =
          std::max(report.max_window_seconds, estimate.seconds);

      double mean_err = -1.0;
      if (estimate.usable) {
        ++report.usable_windows;
        if (options.truth != nullptr) {
          mean_err = core::mean_congested_error(
              *options.truth, estimate.inference.congestion_prob, paths,
              inference.measurement());
        }
      }
      report.last_mean_err = mean_err;
      output << window_json(estimate, mean_err) << '\n';
      output.flush();
      if (!output.good()) {
        // Downstream hung up (EPIPE with SIGPIPE ignored, or any other
        // stream failure). Further windows have no reader: stop cleanly and
        // let the caller report it instead of crashing mid-write.
        report.output_closed = true;
        break;
      }
      if (options.max_windows != 0 && report.windows >= options.max_windows) {
        break;
      }
    }
    drained = !window.has_value();
  }
  report.truncations = truncations;  // the join ordered the producer's writes
  // A producer error matters only when the consumer waited on it: past
  // max_windows or a dead output, the producer's read-ahead failed on input
  // no window needed.
  if (drained && producer_error) std::rethrow_exception(producer_error);
  return report;
}

}  // namespace tomo::stream
