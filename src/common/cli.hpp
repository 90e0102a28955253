// Minimal command-line flag parsing for bench and example binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms. All
// binaries must also run with no arguments (laptop-scale defaults), so every
// flag has a default.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

namespace resmon {

/// Parses argv into a flag map and serves typed lookups with defaults.
class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// The typed getters parse the whole value through common/parse.hpp and
  /// throw InvalidArgument naming the flag on anything else.
  /// A non-negative integer (no sign, no trailing characters).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// A finite number.
  double get_double(const std::string& name, double fallback) const;
  /// A flag present with no value reads as true; a value must be one of
  /// true/1/yes/on or false/0/no/off.
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Worker-thread count from --threads: 0 = hardware concurrency, 1 =
  /// serial. The default fallback keeps binaries serial when the flag is
  /// absent. Results never depend on the value (see PipelineOptions).
  std::size_t get_threads(std::size_t fallback = 1) const;

  /// The first flag given (in name order) that `known` does not list, or
  /// "" when `known` lists every flag given.
  std::string first_unknown(std::span<const std::string_view> known) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace resmon
