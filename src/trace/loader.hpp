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
#include <vector>

#include "trace/trace.hpp"

namespace resmon::trace {

// The row reader of the grammar, shared by load_csv and the host-recording
// reader (src/host/recording.cpp), whose data rows are trace CSV rows.

/// Read the next line of `in` into `line`, without its '\n' or a trailing
/// '\r'. Returns false at the end of input.
bool read_csv_line(std::istream& in, std::string& line);

/// Split one line on ','; a trailing ',' yields a final empty field.
std::vector<std::string> split_csv_line(const std::string& line);

/// One data row: `node,step,<value>,...`.
struct CsvRow {
  std::size_t node = 0;
  std::size_t step = 0;
  std::vector<double> values;  ///< one per resource column of the header
};

/// Parse one data line against the split header line: as many fields as
/// the header, node and step by resmon::parse_size, each value by
/// resmon::parse_double. Throws InvalidArgument whose message starts with
/// `where` and names the offending column.
CsvRow parse_csv_row(const std::string& line,
                     const std::vector<std::string>& header,
                     const std::string& where);

/// Parse a trace from a stream. Throws resmon::Error on malformed input.
InMemoryTrace load_csv(std::istream& in);

/// Parse a trace from a file path.
InMemoryTrace load_csv_file(const std::string& path);

/// Serialize a trace in the same CSV format (for round-tripping and for
/// exporting synthetic traces to other tools). Values are written with
/// max_digits10 significant digits, so load_csv(save_csv(t)) == t bitwise.
void save_csv(const Trace& trace, std::ostream& out);

}  // namespace resmon::trace
