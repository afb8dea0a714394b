#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace tomo {

Flags::Flags(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

Flags& Flags::add(const std::string& name, Kind kind,
                  std::string default_value, const std::string& help) {
  TOMO_REQUIRE(!flags_.count(name), "duplicate flag --" + name);
  flags_[name] = Flag{kind, help, default_value, default_value};
  order_.push_back(name);
  return *this;
}

Flags& Flags::add_int(const std::string& name, std::int64_t default_value,
                      const std::string& help) {
  return add(name, Kind::kInt, std::to_string(default_value), help);
}

Flags& Flags::add_double(const std::string& name, double default_value,
                         const std::string& help) {
  std::ostringstream os;
  os << default_value;
  return add(name, Kind::kDouble, os.str(), help);
}

Flags& Flags::add_bool(const std::string& name, bool default_value,
                       const std::string& help) {
  return add(name, Kind::kBool, default_value ? "true" : "false", help);
}

Flags& Flags::add_string(const std::string& name,
                         const std::string& default_value,
                         const std::string& help) {
  return add(name, Kind::kString, default_value, help);
}

bool Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    TOMO_REQUIRE(arg.rfind("--", 0) == 0, "unexpected argument: " + arg);
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto it = flags_.find(name);
    TOMO_REQUIRE(it != flags_.end(), "unknown flag --" + name);
    Flag& flag = it->second;
    if (!has_value) {
      if (flag.kind == Kind::kBool) {
        value = "true";
      } else {
        TOMO_REQUIRE(i + 1 < argc, "flag --" + name + " needs a value");
        value = argv[++i];
      }
    }
    flag.value = value;
  }
  return true;
}

const Flags::Flag& Flags::find(const std::string& name, Kind kind) const {
  auto it = flags_.find(name);
  TOMO_REQUIRE(it != flags_.end(), "flag --" + name + " was never registered");
  TOMO_REQUIRE(it->second.kind == kind,
               "flag --" + name + " accessed with the wrong type");
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name) const {
  const Flag& flag = find(name, Kind::kInt);
  char* end = nullptr;
  std::int64_t v = std::strtoll(flag.value.c_str(), &end, 10);
  TOMO_REQUIRE(end && *end == '\0',
               "flag --" + name + " expects an integer, got " + flag.value);
  return v;
}

std::size_t Flags::get_count(const std::string& name) const {
  const std::int64_t v = get_int(name);
  if (v < 0) {
    throw Error("flag --" + name + " expects a non-negative count, got " +
                std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

double Flags::get_double(const std::string& name) const {
  const Flag& flag = find(name, Kind::kDouble);
  char* end = nullptr;
  double v = std::strtod(flag.value.c_str(), &end);
  TOMO_REQUIRE(end && *end == '\0',
               "flag --" + name + " expects a number, got " + flag.value);
  return v;
}

bool Flags::get_bool(const std::string& name) const {
  const Flag& flag = find(name, Kind::kBool);
  if (flag.value == "true" || flag.value == "1") return true;
  if (flag.value == "false" || flag.value == "0") return false;
  throw Error("flag --" + name + " expects true/false, got " + flag.value);
}

const std::string& Flags::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

std::string Flags::help() const {
  std::ostringstream os;
  os << program_ << " — " << summary_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " (default " << flag.default_value << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

}  // namespace tomo
