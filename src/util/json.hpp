// Minimal JSON document builder for bench telemetry.
//
// The bench binaries serialize their settings, per-trial wall times, and
// result tables to BENCH_<name>.json so runs are machine-comparable across
// commits. Writing JSON needs ~no machinery, so this stays deliberately
// tiny: an ordered value tree (insertion order is preserved, so emitted
// files diff cleanly) with a pretty-printing writer. There is no parser —
// nothing in libtomo consumes JSON.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace tomo::util {

class Json {
 public:
  Json() : kind_(Kind::kNull) {}
  Json(bool value);                // NOLINT(runtime/explicit)
  /// Any integer type (int, std::size_t, ...): an exact-match template so
  /// no platform-dependent conversion ranking can make calls ambiguous
  /// (std::size_t is not std::uint64_t everywhere).
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Json(T value)                    // NOLINT(runtime/explicit)
      : kind_(Kind::kNumber), scalar_(std::to_string(value)) {}
  Json(double value);              // NOLINT(runtime/explicit)
  Json(std::string value);         // NOLINT(runtime/explicit)
  Json(const char* value) : Json(std::string(value)) {}

  static Json object();
  static Json array();

  /// Appends key/value; requires an object. Returns *this for chaining.
  Json& set(std::string key, Json value);

  /// Appends an element; requires an array. Returns *this for chaining.
  Json& push(Json value);

  /// Convenience: an array of numbers.
  static Json array_of(const std::vector<double>& values);
  static Json array_of(const std::vector<std::string>& values);

  /// Pretty-prints with 2-space indentation and a trailing newline at the
  /// top level.
  void write(std::ostream& os) const;
  std::string str() const;

  /// JSON string escaping (quotes, backslash, control characters).
  static std::string escape(const std::string& raw);

 private:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  void write_indented(std::ostream& os, int depth) const;

  Kind kind_;
  std::string scalar_;  // rendered literal for bool/number, raw for string
  std::vector<Json> elements_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace tomo::util
