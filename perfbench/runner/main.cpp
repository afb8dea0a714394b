// perfbench_runner: runs one reference workload in this single-threaded
// process and prints one JSON line with every metric it measured.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--scale tiny]
//
// Untraced (--trace 0): set up at least three times (median setup_s), then
// repeat untraced passes while another pass still fits in --seconds, and
// report medians. Traced (--trace 1):
// half the time on untraced passes, half on traced ones; report per-layer
// span medians, attribution (top-level spans against the pass wall time)
// and tracing overhead. Both modes check every estimate and exit 1 when a
// check fails. perfbench/run.py builds this binary and picks the metrics
// BENCHMARK.json names.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/scenario_catalog.hpp"
#include "util/bitops.hpp"
#include "util/error.hpp"

namespace {

using namespace perfbench;

/// Setup repeats at least kMinSetups times and until kSetupSeconds have
/// passed (at most kMaxSetups times); setup_s is the median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr double kSetupSeconds = 1.5;
/// Top-level spans must cover this share of the traced pass wall time.
constexpr double kMinAttribution = 0.95;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scale") {
      TOMO_REQUIRE(value == "tiny" || value == "full", "--scale: tiny|full");
      args.scale.tiny = value == "tiny";
    } else {
      throw tomo::Error("unknown flag " + key);
    }
  }
  TOMO_REQUIRE(args.seconds > 0.0, "--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  using Factory =
      std::function<std::unique_ptr<Workload>(std::uint64_t, Scale)>;
  const std::vector<std::pair<std::string, Factory>> factories = {
      {"batch-registry", make_batch_registry},
      {"sharded-hier10k", make_sharded_hier10k},
      {"bootstrap-waxfull", make_bootstrap_waxfull},
      {"stream-hier2k", make_stream_hier2k},
  };
  for (const auto& [name, factory] : factories) {
    if (name == args.workload) return factory(args.seed, args.scale);
  }
  throw tomo::Error("unknown workload '" + args.workload + "'");
}

std::string unit_of(const std::string& name) {
  const auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (ends_with("_per_s")) return "1/s";
  if (ends_with("_ms")) return "ms";
  if (ends_with("_s")) return "s";
  if (ends_with("_mb") || ends_with("_mb_computed")) return "MB";
  if (ends_with("_err")) return "prob";
  if (ends_with("_ratio") || ends_with("_share") || ends_with("coverage") ||
      ends_with("attribution")) {
    return "ratio";
  }
  return "count";
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string quoted(const std::string& raw) {
  std::string out = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Every estimate must be a probability.
bool in_range(const Pass& pass) {
  for (const std::vector<double>& estimate : pass.estimates) {
    for (const double p : estimate) {
      if (!std::isfinite(p) || p < 0.0 || p > 1.0) return false;
    }
  }
  return true;
}

/// Per-key median over several traces' flattened metrics.
std::map<std::string, double> medians(
    const std::vector<std::map<std::string, double>>& samples) {
  std::map<std::string, std::vector<double>> by_key;
  for (const auto& sample : samples) {
    for (const auto& [key, value] : sample) by_key[key].push_back(value);
  }
  std::map<std::string, double> out;
  for (const auto& [key, values] : by_key) out[key] = median(values);
  return out;
}

int run(const Args& args) {
  // Untimed warm-up: resolve the scenario catalog and the bit-kernel
  // dispatch before anything is timed.
  tomo::core::ScenarioCatalog::instance();
  const char* kernel = tomo::util::bitops::active().name;

  std::unique_ptr<Workload> workload = make_workload(args);
  std::vector<std::string> errors;
  const auto fail = [&errors](const std::string& message) {
    if (std::find(errors.begin(), errors.end(), message) == errors.end()) {
      errors.push_back(message);
    }
  };
  std::map<std::string, double> metrics;

  std::vector<double> setups;
  std::vector<std::map<std::string, double>> setup_spans;
  const Clock::time_point setup_start = Clock::now();
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups &&
          seconds_since(setup_start) < kSetupSeconds)) {
    Trace trace;
    const Clock::time_point start = Clock::now();
    workload->setup(args.trace ? &trace : nullptr);
    setups.push_back(seconds_since(start));
    setup_spans.push_back(trace.flatten());
  }

  // Untraced passes: every one must reproduce the first bit for bit.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  Pass first;
  std::vector<double> walls, window_p50;
  std::size_t attempted = 0, failed = 0;
  const Clock::time_point untraced_start = Clock::now();
  do {
    Pass pass = workload->run(nullptr);
    walls.push_back(pass.wall_s);
    window_p50.push_back(median(pass.window_ms));
    attempted += pass.attempted;
    failed += pass.failed;
    if (!in_range(pass)) fail("estimate outside [0, 1]");
    if (walls.size() == 1) {
      first = std::move(pass);
    } else if (pass.estimates != first.estimates) {
      fail("repeated untraced passes disagree");
    }
  } while (seconds_since(untraced_start) + median(walls) <= untraced_budget);
  for (const std::string& message : workload->check(first)) fail(message);
  const double wall_s = median(walls);

  if (!args.trace) {
    metrics["setup_s"] = median(setups);
    metrics["wall_s"] = wall_s;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
    metrics["mean_err"] = first.mean_err;
    metrics["window_p50_ms"] = median(window_p50);
    metrics["snapshots_per_s"] = first.snapshots / wall_s;
  } else {
    std::vector<std::map<std::string, double>> traced;
    std::vector<double> traced_walls, unattributed, attribution;
    const Clock::time_point traced_start = Clock::now();
    do {
      Trace trace;
      const Pass pass = workload->run(&trace);
      attempted += pass.attempted;
      failed += pass.failed;
      if (pass.estimates != first.estimates) {
        fail("traced and untraced estimates differ");
      }
      traced_walls.push_back(pass.wall_s);
      const double top = trace.top_level_seconds();
      unattributed.push_back(pass.wall_s - top);
      attribution.push_back(top / pass.wall_s);
      traced.push_back(trace.flatten());
    } while (seconds_since(traced_start) + median(traced_walls) <=
             args.seconds / 2);
    metrics = medians(traced);
    for (const auto& [key, value] : medians(setup_spans)) metrics[key] = value;
    if (metrics.count("core.pair_candidates") &&
        metrics["core.pair_candidates"] > 0.0) {
      metrics["core.pair_accept_ratio"] =
          metrics["core.pairs_accepted"] / metrics["core.pair_candidates"];
    }
    metrics["trace.unattributed_s"] = median(unattributed);
    metrics["trace.attribution"] = median(attribution);
    metrics["trace.overhead_s"] = median(traced_walls) - wall_s;
    if (metrics["trace.attribution"] < kMinAttribution) {
      fail("top-level spans cover " +
           number(100.0 * metrics["trace.attribution"]) +
           "% of the traced wall time (< 95%)");
    }
  }

  std::string out = "{\"correct\":";
  out += errors.empty() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool comma = false;
  for (const auto& [name, value] : metrics) {
    if (comma) out += ',';
    comma = true;
    out += quoted(name) + ":{\"value\":" + number(value) +
           ",\"unit\":" + quoted(unit_of(name)) + "}";
  }
  out += "},\"context\":{";
  out += "\"workload\":" + quoted(args.workload);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"scale\":" + quoted(args.scale.tiny ? "tiny" : "full");
  out += ",\"pass_walls_s\":[";
  for (std::size_t i = 0; i < walls.size(); ++i) {
    if (i > 0) out += ',';
    out += number(walls[i]);
  }
  out += "]";
  out += ",\"failed_share\":" +
         number(static_cast<double>(failed) / static_cast<double>(attempted));
  out += ",\"cpu_model\":" + quoted(cpu_model());
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"bitops_kernel\":" + quoted(kernel);
  out += ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE);
  out += ",\"compiler\":" + quoted(PERFBENCH_COMPILER);
  out += "},\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(errors[i]);
  }
  out += "]}";
  std::cout << out << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  }
}
