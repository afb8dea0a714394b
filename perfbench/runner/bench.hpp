// Shared pieces of the reference benchmark runner: the span/counter trace
// the traced run records from outside the library, the per-pass outcome
// every workload reports, and the workload interface main.cpp drives.
//
// Nothing here reaches into src/: a span is the wall time of one call the
// benchmark makes into a layer's public function. Where a layer calls a
// lower layer's public function internally, the workload re-times that call
// on the same inputs after the pass and records it as a child span, so a
// parent's self time is its span minus its children.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
double median(std::vector<double> values);

/// One pass's spans (summed per name) and counters.
class Trace {
 public:
  /// Runs `fn`, adding its wall time to span `name`. A span with an empty
  /// `parent` is top-level: top-level spans must cover the pass wall time.
  template <typename Fn>
  decltype(auto) span(const std::string& name, Fn&& fn,
                      const std::string& parent = "") {
    const Clock::time_point start = Clock::now();
    struct Record {
      Trace& trace;
      const std::string& name;
      const std::string& parent;
      Clock::time_point start;
      ~Record() { trace.add(name, seconds_since(start), parent); }
    } record{*this, name, parent, start};
    return fn();
  }

  void add(const std::string& name, double seconds,
           const std::string& parent = "");
  void count(const std::string& name, double value) {
    counters_[name] += value;
  }

  double top_level_seconds() const;
  /// Every span total, plus "<parent>_self_s" for each parent with children
  /// (its span minus its children's), plus the counters.
  std::map<std::string, double> flatten() const;

 private:
  struct Span {
    double seconds = 0.0;
    std::string parent;
  };
  std::map<std::string, Span> spans_;
  std::map<std::string, double> counters_;
};

/// Trace::span when tracing, a plain call otherwise.
template <typename Fn>
decltype(auto) maybe_span(Trace* trace, const std::string& name, Fn&& fn) {
  if (trace == nullptr) return fn();
  return trace->span(name, std::forward<Fn>(fn));
}

/// What one timed pass over the prepared inputs produced.
struct Pass {
  double wall_s = 0.0;
  /// Every estimate vector the pass produced, in a fixed order: the traced
  /// and untraced runs (and repeated passes) must agree bit for bit.
  std::vector<std::vector<double>> estimates;
  double mean_err = 0.0;
  /// Latency of each estimate update the pass delivered, in ms: one per
  /// streamed window, one per registry trial, one per trial elsewhere.
  std::vector<double> window_ms;
  /// Snapshots the timed inference consumed.
  double snapshots = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Every workload runs on a fixed topology and ground truth: the registry
/// entry built at this seed. The workload seed drives the measurements (the
/// snapshot simulation) and the algorithms' own randomness (bootstrap
/// replicates, shard precision runs), so a run's cost does not depend on
/// which random topology a seed happens to draw.
constexpr std::uint64_t kTopologySeed = 1;

struct Scale {
  /// Self-test scale: shrunk topologies and short traces, seconds per run.
  bool tiny = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input from the seed (scenario, coverage index,
  /// simulation, wire serialization); replaces any previous inputs. With a
  /// trace, records one span per setup layer.
  virtual void setup(Trace* trace) = 0;

  /// One pass from inputs ready to the final estimate. With a trace, every
  /// layer call is a span, and the lower-layer calls made inside a layer
  /// are re-timed afterwards as child spans (outside the pass wall time).
  virtual Pass run(Trace* trace) = 0;

  /// Output checks beyond range and identity, run outside the timed
  /// region on an untraced pass; returns one message per failed check.
  virtual std::vector<std::string> check(const Pass& pass) {
    (void)pass;
    return {};
  }
};

std::unique_ptr<Workload> make_batch_registry(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_sharded_hier10k(std::uint64_t seed, Scale scale);
std::unique_ptr<Workload> make_bootstrap_waxfull(std::uint64_t seed,
                                                 Scale scale);
std::unique_ptr<Workload> make_stream_hier2k(std::uint64_t seed, Scale scale);

/// Sums "iters=" and "refactor=" out of a LogSystemSolution::detail string
/// into linalg.nnls_iters / linalg.refactorizations.
void count_solver_detail(Trace& trace, const std::string& detail);

/// Mean of the absolute errors (0 for an empty population).
double mean_of(const std::vector<double>& values);

}  // namespace perfbench
