// stream-hier2k: hier-2k at 2048 snapshots, serialized in memory to
// `tomo-obs-stream v1` as 16 windows of 128 snapshots and served through
// stream::serve — a cumulative splice plus a full re-harvest per window.
// The untraced pass reads each window's latency by timestamping the lines
// serve emits; the traced pass drives the reader and StreamingInference
// directly, one span per call.
#include <cstdlib>
#include <optional>
#include <sstream>
#include <streambuf>

#include "bench.hpp"
#include "core/correlation_algorithm.hpp"
#include "core/experiment.hpp"
#include "core/run_trials.hpp"
#include "core/scenario_catalog.hpp"
#include "metrics/error_metrics.hpp"
#include "sim/simulator.hpp"
#include "stream/obs_stream.hpp"
#include "stream/serve.hpp"
#include "stream/streaming_measurement.hpp"
#include "util/error.hpp"

namespace perfbench {
namespace {

using namespace tomo;

/// Output sink that keeps every line serve writes and the moment its
/// newline arrived.
class LineClock final : public std::streambuf {
 public:
  std::vector<std::string> lines;
  std::vector<Clock::time_point> stamps;

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      put(traits_type::to_char_type(ch));
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) put(s[i]);
    return n;
  }

 private:
  void put(char c) {
    if (c != '\n') {
      current_.push_back(c);
      return;
    }
    stamps.push_back(Clock::now());
    lines.push_back(std::move(current_));
    current_.clear();
  }
  std::string current_;
};

/// The number after `"key":` in a window line (0 when absent).
std::size_t field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + key.size() + 3, nullptr, 10);
}

/// The "estimate" array of a window line; %.17g round-trips every bit.
std::vector<double> parse_estimate(const std::string& line) {
  std::vector<double> out;
  const std::size_t at = line.find("\"estimate\":[");
  if (at == std::string::npos) return out;
  const char* p = line.c_str() + at + 12;
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

class StreamHier2k final : public Workload {
 public:
  StreamHier2k(std::uint64_t seed, Scale scale) : seed_(seed), scale_(scale) {
    options_.truth = &instance_.true_marginals;
  }

  void setup(Trace* trace) override {
    coverage_.reset();
    block_.reset();
    const core::TrialContext ctx{0, seed_};
    core::ScenarioConfig config =
        core::ScenarioCatalog::instance().at("hier-2k").config;
    if (scale_.tiny) config = core::shrink_for_tests(config);
    config.seed = core::TrialContext{0, kTopologySeed}.seed(0x5ce00);
    sim::SimulatorConfig sim;
    sim.snapshots = scale_.tiny ? 256 : 2048;
    sim.packets_per_path = scale_.tiny ? 500 : 4000;
    sim.seed = ctx.seed(0x51000);
    const std::size_t window = sim.snapshots / 16;

    maybe_span(trace, "core.build_scenario_s",
               [&] { instance_ = core::build_scenario(config); });
    maybe_span(trace, "graph.coverage_s",
               [&] { coverage_.emplace(instance_.graph, instance_.paths); });
    maybe_span(trace, "sim.simulate_s", [&] {
      block_.emplace(std::move(
          sim::simulate(instance_.graph, instance_.paths, *instance_.truth, sim)
              .measurement));
    });
    maybe_span(trace, "stream.serialize_s", [&] {
      std::ostringstream os;
      stream::ObsStreamWriter writer(os, block_->path_count);
      for (const sim::MeasurementBlock& w :
           stream::split_windows(*block_, window)) {
        writer.write_window(w);
      }
      writer.close();
      wire_ = os.str();
    });
  }

  Pass run(Trace* trace) override {
    return trace == nullptr ? serve_pass() : traced_pass(*trace);
  }

  std::vector<std::string> check(const Pass& pass) override {
    (void)pass;
    // The final window's system is the batch harvest over every snapshot.
    const sim::EmpiricalMeasurement full{sim::MeasurementBlock(*block_)};
    const core::RefinedHarvest batch = core::harvest_refined_system(
        instance_.graph, instance_.paths, *coverage_, instance_.declared_sets,
        full, options_.streaming.inference);
    if (last_line_.empty() ||
        field(last_line_, "equations") != batch.system.equations.size() ||
        field(last_line_, "rank") != batch.system.rank) {
      return {"stream-hier2k: final window's equations/rank differ from the "
              "batch harvest"};
    }
    return {};
  }

 private:
  Pass serve_pass() {
    Pass pass;
    std::istringstream input(wire_);
    LineClock clock;
    std::ostream output(&clock);
    const Clock::time_point start = Clock::now();
    const stream::ServeReport report =
        stream::serve(input, output, instance_.graph, instance_.paths,
                      instance_.declared_sets, options_);
    pass.wall_s = seconds_since(start);

    Clock::time_point previous = start;
    for (const Clock::time_point stamp : clock.stamps) {
      pass.window_ms.push_back(
          1e3 * std::chrono::duration<double>(stamp - previous).count());
      previous = stamp;
    }
    for (const std::string& line : clock.lines) {
      pass.estimates.push_back(parse_estimate(line));
    }
    last_line_ = clock.lines.empty() ? std::string() : clock.lines.back();
    pass.mean_err = report.last_mean_err;
    pass.snapshots = static_cast<double>(report.snapshots);
    pass.attempted = report.windows;
    pass.failed = report.windows - report.usable_windows;
    return pass;
  }

  /// serve's loop on one thread: parse, push, score, one span each.
  Pass traced_pass(Trace& trace) {
    Pass pass;
    std::vector<sim::MeasurementBlock> windows;
    const Clock::time_point start = Clock::now();
    std::istringstream input(wire_);
    stream::ObsStreamReader reader(input);
    stream::StreamingInference inference(instance_.graph, instance_.paths,
                                         instance_.declared_sets,
                                         options_.streaming);
    double usable = 0.0, reused = 0.0, warm = 0.0, equations = 0.0;
    std::size_t snapshots = 0;
    for (;;) {
      const Clock::time_point window_start = Clock::now();
      std::optional<sim::MeasurementBlock> window =
          trace.span("stream.parse_s", [&] { return reader.next(); });
      if (!window) break;
      const stream::WindowEstimate estimate =
          trace.span("stream.push_window_s",
                     [&] { return inference.push_window(*window); });
      ++pass.attempted;
      snapshots = estimate.snapshots;
      pass.mean_err = -1.0;
      if (estimate.usable) {
        usable += 1.0;
        reused += estimate.gram_reused ? 1.0 : 0.0;
        warm += estimate.warm_started ? 1.0 : 0.0;
        count_solver_detail(trace, estimate.inference.solver_detail);
        pass.mean_err = trace.span("metrics.score_s", [&] {
          return mean_of(metrics::absolute_errors(
              instance_.true_marginals, estimate.inference.congestion_prob,
              core::potentially_congested_links(instance_.paths,
                                                inference.measurement())));
        });
        pass.estimates.push_back(estimate.inference.congestion_prob);
        equations =
            static_cast<double>(estimate.inference.system.equations.size());
      } else {
        ++pass.failed;
        pass.estimates.emplace_back();
      }
      pass.window_ms.push_back(1e3 * seconds_since(window_start));
      windows.push_back(std::move(*window));
    }
    pass.wall_s = seconds_since(start);
    pass.snapshots = static_cast<double>(snapshots);

    trace.count("stream.windows", static_cast<double>(pass.attempted));
    trace.count("stream.usable_windows", usable);
    if (usable > 0.0) {
      trace.count("stream.gram_reuse_ratio", reused / usable);
      trace.count("stream.warm_start_ratio", warm / usable);
    }
    trace.count("core.equations", equations);
    // push_window splices the window onto the cumulative measurement and
    // re-harvests it; re-time both on the same inputs as its children.
    stream::StreamingMeasurement shadow(instance_.paths.size());
    for (const sim::MeasurementBlock& window : windows) {
      trace.span("stream.splice_s", [&] { shadow.append(window); },
                 "stream.push_window_s");
      trace.span(
          "core.window_harvest_s",
          [&] {
            return core::harvest_refined_system(
                instance_.graph, instance_.paths, *coverage_,
                instance_.declared_sets, shadow, options_.streaming.inference);
          },
          "stream.push_window_s");
    }
    return pass;
  }

  std::uint64_t seed_;
  Scale scale_;
  stream::ServeOptions options_;
  core::ScenarioInstance instance_;
  std::optional<graph::CoverageIndex> coverage_;
  std::optional<sim::MeasurementBlock> block_;
  std::string wire_;
  std::string last_line_;
};

}  // namespace

std::unique_ptr<Workload> make_stream_hier2k(std::uint64_t seed, Scale scale) {
  return std::make_unique<StreamHier2k>(seed, scale);
}

}  // namespace perfbench
