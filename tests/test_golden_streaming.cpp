// Golden-pinned per-window convergence of the streaming inference path:
// two registry scenarios are replayed window by window and the streamed
// error-vs-window curve (mean absolute error over the potentially
// congested links after each window) is compared against committed
// baselines in tests/golden/stream-*.json.
//
// The curve is the daemon's user-visible behaviour — early windows noisy,
// late windows converging onto the batch answer — so pinning it catches
// regressions in the incremental plumbing (splice, Gram reuse, warm
// start) that still pass the exact-equivalence tier by failing *both*
// sides equally. To accept an intentional change, regenerate with
//
//   ./build/tests/test_golden_streaming --update-golden
//
// and commit the rewritten tests/golden/stream-*.json.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario_catalog.hpp"
#include "metrics/error_metrics.hpp"
#include "sim/simulator.hpp"
#include "stream/streaming_inference.hpp"
#include "stream/streaming_measurement.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

#ifndef TOMO_GOLDEN_DIR
#error "TOMO_GOLDEN_DIR must be defined by the build"
#endif

namespace tomo {

// Set by main() on --update-golden; rewrites baselines instead of checking.
bool g_update_golden = false;

namespace {

std::string golden_path(const std::string& case_name) {
  return std::string(TOMO_GOLDEN_DIR) + "/" + case_name + ".json";
}

/// Per-metric absolute tolerance (same calibration as test_golden_metrics:
/// generous for libm/optimization jitter, tight against real regressions).
double tolerance_for(const std::string& key) {
  if (key.find("mean_err") != std::string::npos) return 0.010;
  if (key == "windows" || key == "final_active") return 0.5;
  ADD_FAILURE() << "no tolerance registered for metric " << key;
  return 0.0;
}

/// Minimal flat-JSON reader (same shape util::Json writes).
std::map<std::string, double> read_golden(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "missing golden baseline " << path
                         << " — run test_golden_streaming --update-golden";
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();

  std::map<std::string, double> out;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    std::size_t cursor = key_end + 1;
    while (cursor < text.size() && std::isspace(text[cursor])) ++cursor;
    if (cursor < text.size() && text[cursor] == ':') {
      ++cursor;
      while (cursor < text.size() && std::isspace(text[cursor])) ++cursor;
      if (cursor < text.size() &&
          (std::isdigit(text[cursor]) || text[cursor] == '-')) {
        out[key] = std::strtod(text.c_str() + cursor, nullptr);
      }
    }
    pos = key_end + 1;
  }
  return out;
}

using Metrics = std::vector<std::pair<std::string, double>>;

void check_or_update(const std::string& case_name, const Metrics& metrics) {
  if (g_update_golden) {
    util::Json doc = util::Json::object();
    doc.set("case", case_name);
    util::Json body = util::Json::object();
    for (const auto& [key, value] : metrics) {
      body.set(key, value);
    }
    doc.set("metrics", std::move(body));
    std::ofstream os(golden_path(case_name));
    ASSERT_TRUE(os.good()) << "cannot write " << golden_path(case_name);
    doc.write(os);
    std::cout << "[updated] " << golden_path(case_name) << "\n";
    return;
  }

  const auto golden = read_golden(golden_path(case_name));
  if (golden.empty()) {
    ADD_FAILURE() << case_name
                  << ": golden baseline is missing or unparseable — run "
                     "test_golden_streaming --update-golden";
    return;
  }
  EXPECT_EQ(golden.size(), metrics.size())
      << case_name << ": metric set changed — update the golden baseline";
  for (const auto& [key, value] : metrics) {
    const auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << case_name << ": metric " << key
                    << " missing from baseline — run --update-golden";
      continue;
    }
    EXPECT_NEAR(value, it->second, tolerance_for(key))
        << case_name << "/" << key
        << " drifted from its golden value; if intentional, run "
           "test_golden_streaming --update-golden and commit tests/golden/";
  }
}

/// One streamed registry scenario at test scale with a pinned seed: 500
/// snapshots in four 125-snapshot windows, warm-started and Gram-reusing
/// (the daemon's defaults).
void run_streaming_case(const std::string& name) {
  core::ScenarioConfig config = core::shrink_for_tests(
      core::ScenarioCatalog::instance().at(name).config);
  config.seed = 0x601d;
  const core::ScenarioInstance inst = core::build_scenario(config);

  sim::SimulatorConfig sc;
  sc.snapshots = 500;
  sc.packets_per_path = 800;
  sc.seed = mix_seed(config.seed, 0x601d00);
  const sim::SimulationResult simr =
      sim::simulate(inst.graph, inst.paths, *inst.truth, sc);

  stream::StreamingInference inference(inst.graph, inst.paths,
                                       inst.declared_sets);
  Metrics metrics;
  std::size_t final_active = 0;
  std::size_t windows = 0;
  for (const sim::MeasurementBlock& w :
       stream::split_windows(simr.measurement, 125)) {
    const stream::WindowEstimate estimate = inference.push_window(w);
    ASSERT_TRUE(estimate.usable) << name << " window " << estimate.window;
    const std::vector<double> errors = metrics::absolute_errors(
        inst.true_marginals, estimate.inference.congestion_prob,
        core::potentially_congested_links(inst.paths,
                                          inference.measurement()));
    ASSERT_FALSE(errors.empty()) << name;
    metrics.emplace_back("mean_err_w" + std::to_string(estimate.window),
                         mean(errors));
    final_active = estimate.inference.active_set.size();
    ++windows;
  }
  metrics.emplace_back("windows", static_cast<double>(windows));
  metrics.emplace_back("final_active", static_cast<double>(final_active));
  check_or_update("stream-" + name, metrics);
}

TEST(GoldenStreaming, BriteHigh) { run_streaming_case("brite-high"); }
TEST(GoldenStreaming, WaxmanBursty) { run_streaming_case("waxman-bursty"); }

}  // namespace
}  // namespace tomo

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      tomo::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
