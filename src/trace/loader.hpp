// CSV trace ingestion, for running the pipeline on real cluster traces
// (e.g. pre-processed Alibaba/Bitbrains/Google data).
//
// Expected format: a header line followed by one row per (node, step):
//   node,step,<resource0>,<resource1>,...
// Node ids and steps must be dense 0-based ranges; missing (node, step)
// combinations are filled with the node's previous value (sample-and-hold),
// matching the paper's pre-processing of sparse raw traces.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace resmon::trace {

/// Parse a trace from a stream. Throws resmon::Error on malformed input.
InMemoryTrace load_csv(std::istream& in);

/// Parse a trace from a file path.
InMemoryTrace load_csv_file(const std::string& path);

/// Serialize a trace in the same CSV format (for round-tripping and for
/// exporting synthetic traces to other tools). Values are written with
/// max_digits10 significant digits, so load_csv(save_csv(t)) == t bitwise.
void save_csv(const Trace& trace, std::ostream& out);

}  // namespace resmon::trace
