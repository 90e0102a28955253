#include "common/parse.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace resmon {

std::size_t parse_size(const std::string& context, const std::string& text) {
  if (text.empty()) {
    throw InvalidArgument(context + ": expected a non-negative integer, got "
                                    "an empty field");
  }
  for (const char c : text) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
      throw InvalidArgument(context +
                            ": expected a non-negative integer, got '" +
                            text + "'");
    }
  }
  unsigned long long v = 0;
  std::size_t consumed = 0;
  try {
    v = std::stoull(text, &consumed);
  } catch (const std::exception&) {
    throw InvalidArgument(context + ": integer out of range: '" + text + "'");
  }
  if (consumed != text.size()) {
    throw InvalidArgument(context + ": trailing characters in integer '" +
                          text + "'");
  }
  return static_cast<std::size_t>(v);
}

double parse_double(const std::string& context, const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(v)) {
    throw InvalidArgument(context + ": expected a finite number, got '" +
                          text + "'");
  }
  return v;
}

bool parse_bool(const std::string& context, const std::string& text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  throw InvalidArgument(context + ": expected a boolean, got '" + text + "'");
}

}  // namespace resmon
