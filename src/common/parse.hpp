// Strict numeric/boolean parsing shared by every textual input surface
// (the CSV trace loader and host recordings, the scenario-pack parser, the
// FaultSpec grammar, command-line flags).
//
// std::stoul/std::stod silently accept trailing garbage ("3x" -> 3),
// std::stod also leading whitespace, '+' and hex, and std::stoul wraps
// negative input into a huge unsigned value — each of which turns a typo in
// an input file into a bogus in-memory layout instead of a diagnosis. These
// helpers demand whole-string consumption and throw resmon::InvalidArgument
// naming the caller's context on any violation, so malformed input always
// fails with a message instead of UB downstream.
#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace resmon {

/// Parse a non-negative integer (digits only: no sign, no whitespace, no
/// trailing characters). Throws InvalidArgument("<context>: ...").
std::size_t parse_size(const std::string& context, const std::string& text);

/// Parse a finite double by std::from_chars, requiring the whole string to
/// be consumed: no leading whitespace, no '+', no hex, independent of the
/// locale. Throws InvalidArgument("<context>: expected a finite number, got
/// '<text>'") on an empty field, garbage, trailing characters, nan/inf, or
/// a value out of double's range ("1e400").
double parse_double(const std::string& context, const std::string& text);

/// Parse a boolean: "true"/"1"/"yes"/"on" and "false"/"0"/"no"/"off".
bool parse_bool(const std::string& context, const std::string& text);

}  // namespace resmon
