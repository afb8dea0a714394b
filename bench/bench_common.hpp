// Shared plumbing for the figure-reproduction binaries: common flags,
// scenario scaling, the parallel trial engine, and result emission
// (aligned table / CSV on stdout, JSON telemetry on request).
#pragma once

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/run_trials.hpp"
#include "core/scenario_catalog.hpp"
#include "core/trial_spec.hpp"
#include "util/bitops.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace tomo::bench {

struct Settings {
  bool full = false;
  bool csv = false;
  std::size_t snapshots = 2000;
  std::size_t packets = 4000;
  /// Raised from the historical 3 once trials parallelized across the
  /// pool (PR 8): 8 trials tighten the confidence intervals at roughly
  /// the wall cost 3 serial trials used to pay. docs/REPRODUCING.md's
  /// measured runtimes assume this default.
  std::size_t trials = 8;
  std::size_t jobs = 0;  // trial-level parallelism; 0 = all hardware cores
  std::uint64_t seed = 1;
  /// JSON telemetry destination: "" disables, "auto" writes
  /// BENCH_<name>.json in the working directory, anything else is a path.
  std::string json;
  /// Named registry scenario (see `tomo_scenarios --list`); "" keeps the
  /// binary's built-in workload.
  std::string scenario;
};

/// Registers the flags every experiment binary shares. Defaults come from
/// a default-constructed Settings so --help always matches behavior.
inline void add_common_flags(Flags& flags) {
  const Settings defaults;
  flags.add_bool("full", defaults.full,
                 "paper-scale topologies (slower; shapes are identical)");
  flags.add_bool("csv", defaults.csv, "emit CSV instead of an aligned table");
  flags.add_int("snapshots", static_cast<std::int64_t>(defaults.snapshots),
                "snapshots per experiment");
  flags.add_int("packets", static_cast<std::int64_t>(defaults.packets),
                "probe packets per path per snapshot");
  flags.add_int("trials", static_cast<std::int64_t>(defaults.trials),
                "independent trials averaged per data point");
  flags.add_int("jobs", static_cast<std::int64_t>(defaults.jobs),
                "worker threads for trials (0 = all hardware cores); "
                "results are identical for any value");
  flags.add_int("seed", static_cast<std::int64_t>(defaults.seed),
                "base RNG seed");
  flags.add_string("json", defaults.json,
                   "write JSON telemetry: 'auto' = BENCH_<name>.json, else "
                   "a path; empty disables");
  flags.add_string("scenario", defaults.scenario,
                   "registry scenario replacing the binary's built-in "
                   "topology/correlation setup (tomo_scenarios --list; the "
                   "binary's swept knob still applies)");
}

inline Settings settings_from_flags(const Flags& flags) {
  Settings s;
  s.full = flags.get_bool("full");
  s.csv = flags.get_bool("csv");
  s.snapshots = flags.get_count("snapshots");
  s.packets = flags.get_count("packets");
  s.trials = flags.get_count("trials");
  s.jobs = flags.get_count("jobs");
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  s.json = flags.get_string("json");
  s.scenario = flags.get_string("scenario");
  if (!s.scenario.empty()) {
    core::ScenarioCatalog::instance().at(s.scenario);  // fail fast on typos
  }
  return s;
}

/// Applies the scale knobs (default vs --full paper scale) to a scenario.
inline void apply_scale(core::ScenarioConfig& config, const Settings& s) {
  if (s.full) {
    config.as_nodes = 320;
    config.as_endpoints = 40;     // ~1500 ordered-pair paths
    config.routers = 700;
    config.vantage_points = 40;
  } else {
    config.as_nodes = 60;
    config.as_endpoints = 16;
    config.routers = 150;
    config.vantage_points = 14;
  }
}

/// --full upscaling for catalog scenarios: multiplies every scale knob by
/// the default→paper ratio of apply_scale, so an entry's relative density
/// choices (dense/sparse vantage points, node count) are preserved.
inline void scale_to_paper(core::ScenarioConfig& config) {
  const auto scale = [](std::size_t value, double factor) {
    return static_cast<std::size_t>(
        std::llround(static_cast<double>(value) * factor));
  };
  config.as_nodes = scale(config.as_nodes, 320.0 / 60.0);
  config.as_endpoints = scale(config.as_endpoints, 40.0 / 16.0);
  config.routers = scale(config.routers, 700.0 / 150.0);
  config.vantage_points = scale(config.vantage_points, 40.0 / 14.0);
}

/// Resolves the trial's base scenario. With --scenario, the named catalog
/// entry defines topology, correlation structure, and scale (--full
/// upscales it proportionally); without it, the binary's hard-coded
/// fallback topology/level at the standard default/--full scale —
/// byte-identical to the pre-registry behaviour. Callers still set their
/// swept knobs (congested fraction, unidentifiable fraction, ...) and the
/// per-trial seed on the returned config.
inline core::ScenarioConfig resolve_scenario(
    const Settings& s, core::TopologyKind fallback_topology,
    core::CorrelationLevel fallback_level = core::CorrelationLevel::kHigh) {
  if (!s.scenario.empty()) {
    core::ScenarioConfig config =
        core::ScenarioCatalog::instance().at(s.scenario).config;
    if (s.full) scale_to_paper(config);
    return config;
  }
  core::ScenarioConfig config;
  config.topology = fallback_topology;
  config.level = fallback_level;
  apply_scale(config, s);
  return config;
}

/// Fills the non-scenario half of a TrialSpec from the shared settings.
/// With a single trial the trial-level workers would sit idle, so --jobs is
/// handed down to the batched simulator's block fan-out, the solver's Gram
/// build, and the bootstrap's replicate fan-out instead — all of which
/// merge deterministically, so stdout stays byte-identical for any value.
inline void apply_trial_settings(core::TrialSpec& spec, const Settings& s) {
  spec.sim.snapshots = s.snapshots;
  spec.sim.packets_per_path = s.packets;
  if (s.trials == 1) {
    spec.sim.jobs = s.jobs;
    spec.inference.solver.jobs = s.jobs;
    spec.bootstrap.jobs = s.jobs;
  }
}

/// The resolved spec for a binary's workload: scenario from --scenario (or
/// the binary's fallback topology/level), sim knobs from the shared flags.
/// `scenario_tag` preserves each binary's historical seed stream. Callers
/// still set their swept knobs (congested fraction, ...) on spec.scenario.
inline core::TrialSpec resolve_trial_spec(
    const Settings& s, std::uint64_t scenario_tag,
    core::TopologyKind fallback_topology,
    core::CorrelationLevel fallback_level = core::CorrelationLevel::kHigh) {
  core::TrialSpec spec;
  spec.scenario = resolve_scenario(s, fallback_topology, fallback_level);
  spec.scenario_tag = scenario_tag;
  apply_trial_settings(spec, s);
  return spec;
}

/// Spec for a specific catalog entry (the registry front-end's path).
inline core::TrialSpec resolve_trial_spec(const Settings& s,
                                          const core::CatalogEntry& entry,
                                          std::uint64_t scenario_tag) {
  core::TrialSpec spec;
  spec.scenario = entry.config;
  if (s.full) scale_to_paper(spec.scenario);
  spec.scenario_tag = scenario_tag;
  apply_trial_settings(spec, s);
  return spec;
}

/// A binary's main: runs `body` and turns an error into the exit status
/// tomo_cli and tomo_daemon use — "<name>: <message>" on stderr and exit
/// 1 — instead of letting the exception abort the process.
inline int guarded_main(const char* name, int (*body)(int, char**), int argc,
                        char** argv) {
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.message().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    return 1;
  }
}

inline void emit(const Table& table, const Settings& s) {
  if (s.csv) {
    table.print_csv(std::cout);
  } else {
    table.print_text(std::cout);
  }
}

/// One bench invocation: wraps the trial engine and records everything a
/// future run needs to compare against — settings, per-trial wall times,
/// every emitted table, and scalar summary metrics — then serializes it
/// to BENCH_<name>.json when --json is set.
///
/// The stdout tables stay byte-identical across --jobs values (callers
/// reduce trial outcomes in index order); wall times live only in the
/// JSON, which is telemetry, not metric output.
class Run {
 public:
  Run(std::string name, Settings settings)
      : name_(std::move(name)), settings_(std::move(settings)) {}

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  ~Run() {
    try {
      finish();
    } catch (...) {
      // Destructors must not throw; an explicit finish() reports errors.
    }
  }

  const Settings& settings() const { return settings_; }

  /// Fans `--trials` independent executions of `body` across `--jobs`
  /// workers; returns outcomes in trial order and records their wall
  /// times. May be called once per data point (series benches) or once
  /// per binary.
  template <typename Body>
  auto trials(Body&& body) {
    auto outcomes = core::run_trials(settings_.trials, settings_.jobs,
                                     settings_.seed, std::forward<Body>(body));
    for (const auto& outcome : outcomes) {
      trial_seconds_.push_back(outcome.seconds);
    }
    return outcomes;
  }

  /// Batched sweep for series benches: every (point, trial) pair runs as
  /// one flattened job across `--jobs` workers instead of one barriered
  /// trials() call per point — a slow trial of point 0 overlaps with
  /// point 5's work instead of stalling the whole sweep. body(point, ctx)
  /// receives exactly the TrialContext a per-point trials() call would
  /// hand it (trial seeds do not depend on the point index), and outcomes
  /// come back grouped by point in trial order, so callers' reductions —
  /// and hence stdout — are byte-identical to the sequential per-point
  /// loop for any --jobs.
  template <typename Body>
  auto sweep(std::size_t points, Body&& body) {
    using R = decltype(body(std::size_t{0},
                            std::declval<const core::TrialContext&>()));
    std::vector<std::vector<core::Trial<R>>> out(points);
    for (auto& per_point : out) per_point.resize(settings_.trials);
    util::parallel_for(
        settings_.jobs, points * settings_.trials, [&](std::size_t k) {
          const std::size_t point = k / settings_.trials;
          const std::size_t trial = k % settings_.trials;
          const core::TrialContext ctx{trial, settings_.seed};
          const Stopwatch stopwatch;
          out[point][trial].value = body(point, ctx);
          out[point][trial].seconds = stopwatch.seconds();
          out[point][trial].index = trial;
        });
    // Wall times recorded point-major, matching what per-point trials()
    // calls would have written.
    for (const auto& per_point : out) {
      for (const auto& outcome : per_point) {
        trial_seconds_.push_back(outcome.seconds);
      }
    }
    return out;
  }

  /// Emits the table to stdout (honoring --csv) and records it for JSON.
  void table(const std::string& label, const Table& t) {
    emit(t, settings_);
    util::Json rows = util::Json::array();
    for (std::size_t i = 0; i < t.rows(); ++i) {
      rows.push(util::Json::array_of(t.row(i)));
    }
    tables_.push(util::Json::object()
                     .set("label", label)
                     .set("header", util::Json::array_of(t.header()))
                     .set("rows", std::move(rows)));
  }

  /// Records a scalar summary metric (e.g. an overall mean error).
  Run& metric(const std::string& key, double value) {
    metrics_.set(key, value);
    return *this;
  }

  /// Records a free-form JSON annotation (e.g. per-trial solver detail
  /// strings). Telemetry only — annotations never reach stdout, so tables
  /// stay byte-comparable.
  Run& annotation(const std::string& key, util::Json value) {
    annotations_.set(key, std::move(value));
    return *this;
  }

  /// Writes BENCH_<name>.json (or the explicit --json path). Idempotent;
  /// called from the destructor as a safety net.
  void finish() {
    if (finished_) return;
    finished_ = true;
    if (settings_.json.empty()) return;
    const std::string path =
        settings_.json == "auto" ? "BENCH_" + name_ + ".json" : settings_.json;
    util::Json doc = util::Json::object();
    doc.set("name", name_)
        // 2: added the scenario descriptor; 3: annotations object
        // (per-trial solver detail) + *_solve_seconds metrics; 4: sim_mode
        // setting + *_sim_seconds metrics; 5: bitops_kernel setting +
        // *_resample_seconds metrics; 6: sim_mode setting dropped (one
        // simulator engine).
        .set("schema_version", 6)
        .set("settings", util::Json::object()
                             .set("full", settings_.full)
                             .set("csv", settings_.csv)
                             .set("snapshots", settings_.snapshots)
                             .set("packets", settings_.packets)
                             .set("trials", settings_.trials)
                             .set("jobs", settings_.jobs)
                             .set("jobs_resolved",
                                  util::resolve_jobs(settings_.jobs))
                             .set("seed", settings_.seed)
                             .set("scenario", settings_.scenario)
                             // Telemetry for cross-run comparison: which
                             // bit-kernel table the run dispatched to
                             // (JSON only — never printed to stdout).
                             .set("bitops_kernel",
                                  std::string(util::bitops::active().name)))
        .set("scenario", scenario_descriptor())
        .set("trials_run", trial_seconds_.size())
        .set("trial_seconds", util::Json::array_of(trial_seconds_))
        .set("total_seconds", total_.seconds())
        .set("metrics", std::move(metrics_))
        .set("annotations", std::move(annotations_))
        .set("tables", std::move(tables_));
    std::ofstream out(path);
    TOMO_REQUIRE(out.good(), "cannot open JSON telemetry path: " + path);
    doc.write(out);
    // Telemetry note goes to stderr so stdout stays byte-comparable.
    std::cerr << name_ << ": wrote " << path << "\n";
  }

 private:
  /// The resolved registry entry: name, lineage, and the *base* config
  /// after --full scaling — the binary's swept/fixed knobs (congested
  /// fraction, unidentifiable fraction, ...) are applied per data point on
  /// top of it and show up in the tables, not here. The binary's built-in
  /// workload is recorded as such.
  util::Json scenario_descriptor() const {
    if (settings_.scenario.empty()) {
      return util::Json::object().set("name", "(binary default)");
    }
    const core::CatalogEntry& entry =
        core::ScenarioCatalog::instance().at(settings_.scenario);
    core::ScenarioConfig resolved = entry.config;
    if (settings_.full) scale_to_paper(resolved);
    return util::Json::object()
        .set("name", entry.name)
        .set("figure", entry.figure)
        .set("summary", entry.summary)
        .set("base_config", core::scenario_json(resolved));
  }

  std::string name_;
  Settings settings_;
  Stopwatch total_;
  std::vector<double> trial_seconds_;
  util::Json tables_ = util::Json::array();
  util::Json metrics_ = util::Json::object();
  util::Json annotations_ = util::Json::object();
  bool finished_ = false;
};

}  // namespace tomo::bench
