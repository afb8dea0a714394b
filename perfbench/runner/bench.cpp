#include "bench.hpp"

#include <algorithm>
#include <cstdlib>

namespace perfbench {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean_of(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

void Trace::add(const std::string& name, double seconds,
                const std::string& parent) {
  Span& span = spans_[name];
  span.seconds += seconds;
  span.parent = parent;
}

double Trace::top_level_seconds() const {
  double total = 0.0;
  for (const auto& [name, span] : spans_) {
    if (span.parent.empty()) total += span.seconds;
  }
  return total;
}

std::map<std::string, double> Trace::flatten() const {
  std::map<std::string, double> out = counters_;
  std::map<std::string, double> children;
  for (const auto& [name, span] : spans_) {
    out[name] = span.seconds;
    if (!span.parent.empty()) children[span.parent] += span.seconds;
  }
  for (const auto& [parent, seconds] : children) {
    const auto it = spans_.find(parent);
    const double total = it == spans_.end() ? 0.0 : it->second.seconds;
    // "core.harvest_s" -> "core.harvest_self_s".
    out[parent.substr(0, parent.size() - 2) + "_self_s"] = total - seconds;
  }
  return out;
}

void count_solver_detail(Trace& trace, const std::string& detail) {
  const auto number_after = [&](const std::string& key) {
    const std::size_t at = detail.find(key);
    return at == std::string::npos
               ? 0.0
               : std::strtod(detail.c_str() + at + key.size(), nullptr);
  };
  trace.count("linalg.nnls_iters", number_after("iters="));
  trace.count("linalg.refactorizations", number_after("refactor="));
}

}  // namespace perfbench
