#include "host/recording.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "host/sampler.hpp"
#include "trace/loader.hpp"

namespace resmon::host {

namespace {

/// %.17g: the shortest printf format that round-trips every finite double
/// exactly through strtod/from_chars.
std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

RecordingWriter::RecordingWriter(std::ostream& out,
                                 std::uint64_t interval_ms,
                                 std::size_t num_resources)
    : out_(out), num_resources_(num_resources) {
  RESMON_REQUIRE(num_resources > 0, "recording needs >= 1 resource");
  out_ << kRecordingMagic << '\n';
  out_ << "# interval_ms=" << interval_ms << " resources=" << num_resources
       << '\n';
  out_ << "node,step";
  for (std::size_t r = 0; r < num_resources; ++r) {
    // Resource column names follow the sampler's layout for d = 4 and fall
    // back to generic rN headers for other dimensions.
    if (num_resources == HostSampler::kNumResources) {
      out_ << ',' << HostSampler::resource_name(r);
    } else {
      out_ << ",r" << r;
    }
  }
  out_ << '\n';
}

void RecordingWriter::append(std::span<const double> values,
                             std::uint64_t ts_ms) {
  RESMON_REQUIRE(!finished_, "RecordingWriter: append after finish");
  RESMON_REQUIRE(values.size() == num_resources_,
                 "RecordingWriter: wrong measurement dimension");
  out_ << 0 << ',' << rows_;
  for (const double v : values) out_ << ',' << format_double(v);
  out_ << '\n';
  timestamps_ms_.push_back(ts_ms);
  ++rows_;
}

void RecordingWriter::finish() {
  RESMON_REQUIRE(!finished_, "RecordingWriter: finish called twice");
  finished_ = true;
  out_ << "# ts_ms=";
  for (std::size_t i = 0; i < timestamps_ms_.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << timestamps_ms_[i];
  }
  out_ << '\n';
  out_ << "# end rows=" << rows_ << '\n';
  out_.flush();
}

trace::InMemoryTrace read_recording(std::istream& in,
                                    const std::string& origin) {
  std::string line;
  std::size_t line_no = 0;
  const auto next_line = [&]() -> bool {
    if (!trace::read_csv_line(in, line)) return false;
    ++line_no;
    return true;
  };

  if (!next_line() || line != kRecordingMagic) {
    throw HostParseError(origin, 1, "magic",
                         "not a host recording (expected '" +
                             std::string(kRecordingMagic) + "')");
  }
  if (!next_line() || line.rfind("# ", 0) != 0) {
    throw HostParseError(origin, 2, "metadata",
                         "missing '# interval_ms=... resources=...' line");
  }

  std::size_t num_resources = 0;
  {
    std::istringstream meta(line.substr(2));
    std::string token;
    bool saw_interval = false;
    bool saw_resources = false;
    while (meta >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        throw HostParseError(origin, 2, token,
                             "metadata entries are key=value");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "interval_ms") {
        parse_u64_field(origin, 2, key, value);
        saw_interval = true;
      } else if (key == "resources") {
        num_resources = parse_u64_field(origin, 2, key, value);
        saw_resources = true;
      } else {
        throw HostParseError(origin, 2, key, "unknown metadata key");
      }
    }
    if (!saw_interval || !saw_resources || num_resources == 0) {
      throw HostParseError(
          origin, 2, saw_interval ? "resources" : "interval_ms",
          "metadata must name interval_ms and a nonzero resources count");
    }
  }

  if (!next_line()) {
    throw HostParseError(origin, 3, "header", "missing CSV header");
  }
  const std::vector<std::string> header = trace::split_csv_line(line);
  // size() - 2, not 2 + num_resources: a hostile resources=2^64-1 must
  // not wrap the expected width to 1 and index past a one-field header.
  if (header.size() < 2 || header.size() - 2 != num_resources ||
      header[0] != "node" || header[1] != "step") {
    throw HostParseError(origin, line_no, "header",
                         "expected 'node,step' plus " +
                             std::to_string(num_resources) +
                             " resource columns, got '" + line + "'");
  }

  std::vector<double> values;  // rows x num_resources, row-major
  std::size_t rows = 0;
  std::size_t timestamps = 0;
  bool saw_ts = false;
  bool saw_end = false;
  while (next_line()) {
    if (line.empty()) continue;
    if (line.front() == '#') {
      if (line.rfind("# ts_ms=", 0) == 0) {
        const std::string list = line.substr(std::string("# ts_ms=").size());
        if (!list.empty()) {
          for (const std::string& t : trace::split_csv_line(list)) {
            parse_u64_field(origin, line_no, "ts_ms", t);
            ++timestamps;
          }
        }
        saw_ts = true;
      } else if (line.rfind("# end ", 0) == 0) {
        const std::string tail = line.substr(std::string("# end ").size());
        const std::size_t eq = tail.find('=');
        if (eq == std::string::npos || tail.substr(0, eq) != "rows") {
          throw HostParseError(origin, line_no, "end",
                               "trailer must be '# end rows=N'");
        }
        const std::uint64_t trailer_rows =
            parse_u64_field(origin, line_no, "rows", tail.substr(eq + 1));
        if (trailer_rows != rows) {
          throw HostParseError(
              origin, line_no, "rows",
              "trailer says " + std::to_string(trailer_rows) + " rows but " +
                  std::to_string(rows) + " were read "
                  "(recording truncated or corrupted)");
        }
        saw_end = true;
      }
      // Other comment lines are tolerated for forward compatibility.
      continue;
    }
    if (saw_end) {
      throw HostParseError(origin, line_no, "row",
                           "data after the '# end' trailer");
    }
    trace::CsvRow row;
    try {
      row = trace::parse_csv_row(line, header, "row");
    } catch (const InvalidArgument& e) {
      throw HostParseError(origin, line_no, "row", e.what());
    }
    if (row.node != 0) {
      throw HostParseError(origin, line_no, "node",
                           "recordings are single-node (node must be 0)");
    }
    if (row.step != rows) {
      throw HostParseError(origin, line_no, "step",
                           "expected consecutive step " +
                               std::to_string(rows) + ", got " +
                               std::to_string(row.step));
    }
    values.insert(values.end(), row.values.begin(), row.values.end());
    ++rows;
  }

  if (!saw_end) {
    throw HostParseError(origin, line_no, "end",
                         "missing '# end rows=N' trailer "
                         "(recording truncated?)");
  }
  if (!saw_ts || timestamps != rows) {
    throw HostParseError(origin, line_no, "ts_ms",
                         "timestamp list has " + std::to_string(timestamps) +
                             " entries for " + std::to_string(rows) +
                             " rows");
  }
  // Checked before building the trace, which needs at least one step.
  if (rows == 0) {
    throw HostParseError(origin, line_no, "row", "recording has no samples");
  }
  trace::InMemoryTrace recording(1, rows, num_resources);
  for (std::size_t t = 0; t < rows; ++t) {
    for (std::size_t r = 0; r < num_resources; ++r) {
      recording.set_value(0, t, r, values[t * num_resources + r]);
    }
  }
  return recording;
}

trace::InMemoryTrace read_recording_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("read_recording_file: cannot open " + path);
  }
  return read_recording(in, path);
}

}  // namespace resmon::host
