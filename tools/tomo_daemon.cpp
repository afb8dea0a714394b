// tomo_daemon — the streaming inference service ("tomo serve").
//
// Subcommands:
//   serve    tail an observation file or pipe (classic obs-IO or the
//            windowed tomo-obs-stream format) and emit one JSON estimate
//            line per window on stdout. The JSON protocol carries no
//            timings, so output is byte-identical for any --jobs; latency
//            telemetry goes to stderr.
//   record   simulate a registry scenario and write its observation trace
//            (classic obs-IO, or windowed stream format with --format
//            stream) for later replay through serve.
//   batch    one-shot batch inference over a complete trace, printed in
//            the same JSON shape — the differential reference for serve's
//            final window.
//
// Example session (replaying a recorded trace):
//   tomo_daemon record --scenario waxman-full --seed 7 --snapshots 768
//       --out trace.obs
//   tomo_daemon serve  --scenario waxman-full --seed 7 --input trace.obs
//       --window 256 > streamed.jsonl
//   tomo_daemon batch  --scenario waxman-full --seed 7 --input trace.obs
//       --window 256 > batch.jsonl
//
// Live tailing: point --input at a file another process appends
// tomo-obs-stream windows to (or pipe into --input -) and pass
// --poll-ms 200; each window's estimate prints the moment it lands.
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/correlation_algorithm.hpp"
#include "core/experiment.hpp"
#include "core/scenario_catalog.hpp"
#include "graph/serialize.hpp"
#include "metrics/error_metrics.hpp"
#include "sim/measurement.hpp"
#include "sim/simulator.hpp"
#include "stream/obs_stream.hpp"
#include "stream/serve.hpp"
#include "stream/streaming_inference.hpp"
#include "util/bitops.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using namespace tomo;

/// The measured system a daemon run operates on: either a registry
/// scenario (which also provides ground truth for --mean-err) or a
/// topology file written by tomo_cli gen.
struct ResolvedSystem {
  core::ScenarioInstance instance;  // scenario mode
  graph::MeasuredSystem measured;   // topology mode
  const graph::Graph* graph = nullptr;
  const std::vector<graph::Path>* paths = nullptr;
  std::unique_ptr<corr::CorrelationSets> sets;
  std::vector<double> truth;  // true marginals; empty in topology mode
};

void add_system_flags(Flags& flags) {
  flags.add_string("scenario", "",
                   "registry scenario name (see tomo_scenarios --list)");
  flags.add_int("seed", 7, "scenario seed (topology + truth derivation)");
  flags.add_bool("shrink", false, "shrink the scenario to test scale");
  flags.add_string("topology", "",
                   "topology file instead of --scenario (no ground truth)");
}

ResolvedSystem resolve_system(const Flags& flags) {
  ResolvedSystem out;
  const std::string scenario = flags.get_string("scenario");
  const std::string topology = flags.get_string("topology");
  TOMO_REQUIRE(scenario.empty() != topology.empty(),
               "pass exactly one of --scenario or --topology");
  if (!scenario.empty()) {
    core::ScenarioConfig config =
        core::ScenarioCatalog::instance().at(scenario).config;
    if (flags.get_bool("shrink")) config = core::shrink_for_tests(config);
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
    out.instance = core::build_scenario(config);
    out.graph = &out.instance.graph;
    out.paths = &out.instance.paths;
    out.sets =
        std::make_unique<corr::CorrelationSets>(out.instance.declared_sets);
    out.truth = out.instance.true_marginals;
  } else {
    out.measured = graph::load_system(topology);
    out.graph = &out.measured.graph;
    out.paths = &out.measured.paths;
    if (out.measured.partition.empty()) {
      out.sets = std::make_unique<corr::CorrelationSets>(
          corr::CorrelationSets::singletons(out.measured.graph.link_count()));
    } else {
      out.sets = std::make_unique<corr::CorrelationSets>(
          out.measured.graph.link_count(), out.measured.partition);
    }
  }
  return out;
}

core::InferenceOptions inference_from(const Flags& flags) {
  core::InferenceOptions options;
  options.solver.kind =
      linalg::solver_kind_from_string(flags.get_string("solver"));
  const std::size_t jobs = flags.get_count("jobs");
  options.solver.jobs = jobs;
  options.equations.jobs = jobs;
  return options;
}

double mean_error(const std::vector<double>& truth,
                  const std::vector<graph::Path>& paths,
                  const sim::MeasurementProvider& measurement,
                  const std::vector<double>& estimate) {
  if (truth.empty()) return -1.0;
  const std::vector<double> errors = metrics::absolute_errors(
      truth, estimate, core::potentially_congested_links(paths, measurement));
  if (errors.empty()) return -1.0;
  double sum = 0.0;
  for (double e : errors) sum += e;
  return sum / static_cast<double>(errors.size());
}

int cmd_record(int argc, const char* const* argv) {
  Flags flags("tomo_daemon record",
              "simulate a scenario and record its observation trace");
  add_system_flags(flags);
  flags.add_int("snapshots", 768, "snapshots to simulate");
  flags.add_int("packets", 1000, "probe packets per path per snapshot");
  flags.add_int("sim-seed", 0,
                "simulator seed (0 = derive from --seed like a batch "
                "trial would)");
  flags.add_int("jobs", 1, "simulation worker threads (0 = all cores)");
  flags.add_string("out", "trace.obs", "output trace file");
  flags.add_string("format", "obs",
                   "obs (classic, complete file) | stream (windowed)");
  flags.add_int("window", 256, "snapshots per window (stream format)");
  if (!flags.parse(argc, argv)) return 0;

  const ResolvedSystem system = resolve_system(flags);
  TOMO_REQUIRE(!system.truth.empty(),
               "record needs a --scenario (the truth model drives the "
               "simulation)");

  sim::SimulatorConfig config;
  config.snapshots = flags.get_count("snapshots");
  config.packets_per_path = flags.get_count("packets");
  config.jobs = flags.get_count("jobs");
  config.seed = flags.get_int("sim-seed") != 0
                    ? static_cast<std::uint64_t>(flags.get_int("sim-seed"))
                    : mix_seed(static_cast<std::uint64_t>(
                                   flags.get_int("seed")),
                               0x51000);
  const sim::SimulationResult result = sim::simulate(
      *system.graph, *system.paths, *system.instance.truth, config);

  const std::string out = flags.get_string("out");
  const std::string format = flags.get_string("format");
  if (format == "obs") {
    stream::save_observations(out, result.measurement);
  } else if (format == "stream") {
    std::ofstream os(out);
    TOMO_REQUIRE(os.good(), "cannot open " + out + " for writing");
    stream::ObsStreamWriter writer(os, result.measurement.path_count);
    for (const sim::MeasurementBlock& window : stream::split_windows(
             result.measurement, flags.get_count("window"))) {
      writer.write_window(window);
    }
    writer.close();
    TOMO_REQUIRE(os.good(), "failed writing " + out);
  } else {
    throw Error("unknown --format (expected obs|stream)");
  }
  std::fprintf(stderr,
               "recorded %zu snapshots over %zu paths -> %s (%s format)\n",
               config.snapshots, system.paths->size(), out.c_str(),
               format.c_str());
  return 0;
}

int cmd_serve(int argc, const char* const* argv) {
  Flags flags("tomo_daemon serve",
              "tail an observation stream and re-estimate per window");
  add_system_flags(flags);
  flags.add_string("input", "-",
                   "trace file to tail ('-' = stdin); classic obs files "
                   "are re-sliced by --window");
  flags.add_int("window", 256,
                "snapshots per window when re-slicing a classic file");
  flags.add_string("solver", "nnls", "ls | nnls | l1lp | irls");
  flags.add_int("jobs", 1,
                "harvest/Gram worker threads (0 = all cores); stdout is "
                "byte-identical for any value");
  flags.add_bool("cold", false,
                 "disable the NNLS warm start (every window solves cold)");
  flags.add_int("poll-ms", 0,
                "tail mode: retry interval after EOF (0 = stop at EOF)");
  flags.add_int("max-windows", 0, "stop after this many windows (0 = all)");
  flags.add_int("ring", 8, "ingestion ring capacity (windows)");
  flags.add_bool("mean-err", true,
                 "report per-window mean_err when ground truth is known");
  if (!flags.parse(argc, argv)) return 0;

  const ResolvedSystem system = resolve_system(flags);

  stream::ServeOptions options;
  options.streaming.inference = inference_from(flags);
  options.streaming.warm_start = !flags.get_bool("cold");
  options.window_snapshots = flags.get_count("window");
  options.ring_capacity = flags.get_count("ring");
  options.poll_ms = static_cast<long>(flags.get_int("poll-ms"));
  options.max_windows = flags.get_count("max-windows");
  if (flags.get_bool("mean-err") && !system.truth.empty()) {
    options.truth = &system.truth;
  }

  const std::string input = flags.get_string("input");
  std::ifstream file;
  if (input != "-") {
    file.open(input);
    TOMO_REQUIRE(file.good(), "cannot open " + input);
    // Tailing a real file: let the producer notice in-place truncation
    // (logrotate copytruncate, a recorder restarting) and replay from the
    // start instead of tailing a stale offset.
    options.input_size = [input]() -> long long {
      std::error_code ec;
      const auto size = std::filesystem::file_size(input, ec);
      return ec ? -1 : static_cast<long long>(size);
    };
  }
  std::istream& is = input == "-" ? std::cin : file;

  const stream::ServeReport report = stream::serve(
      is, std::cout, *system.graph, *system.paths, *system.sets, options);
  if (report.output_closed) {
    std::fprintf(stderr,
                 "tomo_daemon: output closed by consumer after %zu "
                 "windows; stopping\n",
                 report.windows);
  }
  if (report.truncations > 0) {
    std::fprintf(stderr, "tomo_daemon: input reopened %zu time(s)\n",
                 report.truncations);
  }
  // Which bit-kernel table the window splices/harvests dispatched to —
  // stderr only, so the JSON window stream on stdout stays byte-stable.
  std::fprintf(stderr,
               "served %zu windows (%zu usable, %zu snapshots): "
               "%.1f ms/window mean, %.1f ms max (%s bit kernels)\n",
               report.windows, report.usable_windows, report.snapshots,
               report.windows
                   ? 1e3 * report.total_seconds /
                         static_cast<double>(report.windows)
                   : 0.0,
               1e3 * report.max_window_seconds,
               tomo::util::bitops::active().name);
  return report.usable_windows > 0 ? 0 : 1;
}

int cmd_batch(int argc, const char* const* argv) {
  Flags flags("tomo_daemon batch",
              "one-shot batch estimate over a complete trace (the "
              "differential reference for serve)");
  add_system_flags(flags);
  flags.add_string("input", "trace.obs", "trace file ('-' = stdin)");
  flags.add_int("window", 256,
                "window size serve would use (labels the JSON line)");
  flags.add_string("solver", "nnls", "ls | nnls | l1lp | irls");
  flags.add_int("jobs", 1, "harvest/Gram worker threads (0 = all cores)");
  flags.add_bool("mean-err", true,
                 "report mean_err when ground truth is known");
  if (!flags.parse(argc, argv)) return 0;
  const std::size_t window = flags.get_count("window");
  TOMO_REQUIRE(window > 0, "window size must be positive");

  const ResolvedSystem system = resolve_system(flags);

  const std::string input = flags.get_string("input");
  std::ifstream file;
  if (input != "-") {
    file.open(input);
    TOMO_REQUIRE(file.good(), "cannot open " + input);
  }
  sim::MeasurementBlock block =
      stream::read_trace(input == "-" ? std::cin : file);
  const std::size_t windows = (block.snapshot_count + window - 1) / window;
  const std::size_t snapshots = block.snapshot_count;
  const sim::EmpiricalMeasurement measurement(std::move(block));

  const graph::CoverageIndex coverage(*system.graph, *system.paths);
  stream::WindowEstimate estimate;
  estimate.window = windows - 1;
  estimate.snapshots = snapshots;
  estimate.usable = true;
  estimate.inference =
      core::infer_congestion(*system.graph, *system.paths, coverage,
                             *system.sets, measurement,
                             inference_from(flags));
  const double err =
      flags.get_bool("mean-err")
          ? mean_error(system.truth, *system.paths, measurement,
                       estimate.inference.congestion_prob)
          : -1.0;
  std::cout << stream::window_json(estimate, err) << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: tomo_daemon <serve|record|batch> [flags]\n"
      "       tomo_daemon <subcommand> --help\n";
  if (argc < 2) {
    std::fputs(usage, stderr);
    return 2;
  }
#ifdef SIGPIPE
  // A consumer like `head` closing our stdout must surface as a stream
  // write failure (handled in stream::serve), not a fatal signal.
  std::signal(SIGPIPE, SIG_IGN);
#endif
  try {
    const std::string cmd = argv[1];
    // Shift argv so each subcommand parses its own flags.
    if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
    if (cmd == "record") return cmd_record(argc - 1, argv + 1);
    if (cmd == "batch") return cmd_batch(argc - 1, argv + 1);
    std::fputs(usage, stderr);
    return 2;
  } catch (const tomo::Error& e) {
    std::fprintf(stderr, "tomo_daemon: %s\n", e.message().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tomo_daemon: %s\n", e.what());
    return 1;
  }
}
