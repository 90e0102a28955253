#include "common/cli.hpp"

#include <algorithm>
#include <limits>
#include <string_view>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace resmon {

namespace {

bool is_flag(std::string_view arg) {
  return arg.size() > 2 && arg.substr(0, 2) == "--";
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!is_flag(arg)) {
      throw InvalidArgument("unexpected positional argument: " +
                            std::string(arg));
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(body.substr(0, eq))] =
          std::string(body.substr(eq + 1));
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // bare boolean flag.
    if (i + 1 < argc && !is_flag(argv[i + 1])) {
      values_[std::string(body)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(body)] = "true";
    }
  }
}

bool Args::has(const std::string& name) const {
  return values_.contains(name);
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::size_t v = parse_size("flag --" + name, it->second);
  if (v > static_cast<std::size_t>(std::numeric_limits<std::int64_t>::max())) {
    throw InvalidArgument("flag --" + name + ": integer out of range: '" +
                          it->second + "'");
  }
  return static_cast<std::int64_t>(v);
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : parse_double("flag --" + name, it->second);
}

std::size_t Args::get_threads(std::size_t fallback) const {
  return static_cast<std::size_t>(
      get_int("threads", static_cast<std::int64_t>(fallback)));
}

bool Args::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : parse_bool("flag --" + name, it->second);
}

std::string Args::first_unknown(
    std::span<const std::string_view> known) const {
  for (const auto& [name, value] : values_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return name;
    }
  }
  return "";
}

}  // namespace resmon
