// Minimal command-line flag parser for the bench and example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--name`. Unknown
// flags raise tomo::Error so typos fail loudly. This deliberately stays
// tiny: the binaries need a handful of numeric knobs, not a CLI framework.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tomo {

class Flags {
 public:
  /// `program` and `summary` are used by help().
  Flags(std::string program, std::string summary);

  Flags& add_int(const std::string& name, std::int64_t default_value,
                 const std::string& help);
  Flags& add_double(const std::string& name, double default_value,
                    const std::string& help);
  Flags& add_bool(const std::string& name, bool default_value,
                  const std::string& help);
  Flags& add_string(const std::string& name, const std::string& default_value,
                    const std::string& help);

  /// Parses argv. Returns false (after printing help) if --help was given.
  /// Throws tomo::Error on unknown flags or malformed values.
  bool parse(int argc, const char* const* argv);

  std::int64_t get_int(const std::string& name) const;
  /// An int flag that counts something (a size, a number of trials or
  /// threads): throws tomo::Error naming the flag when the value is
  /// negative, instead of letting a cast wrap it to a huge count.
  std::size_t get_count(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;

  /// Renders the usage/help text.
  std::string help() const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  struct Flag {
    Kind kind;
    std::string help;
    std::string value;  // textual representation, parsed on get_*
    std::string default_value;
  };

  Flags& add(const std::string& name, Kind kind, std::string default_value,
             const std::string& help);
  const Flag& find(const std::string& name, Kind kind) const;

  std::string program_;
  std::string summary_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace tomo
