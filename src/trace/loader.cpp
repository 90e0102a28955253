#include "trace/loader.hpp"

#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.hpp"

namespace resmon::trace {

namespace {

// A row can place a node/step index anywhere, and the resulting dense
// grid is n*steps*resources cells. Bound both axes so a corrupt index
// ("4294967295" where "42" was meant) is diagnosed early, and bound the
// grid itself before allocating it: two in-range indices can still ask for
// 10^14 cells. 2^29 cells admits the paper's Google fleet at 4 resources
// (12,478 x 8,352 x 4 ~ 4.2e8).
constexpr std::size_t kMaxIndex = 10'000'000;
constexpr std::size_t kMaxCells = std::size_t{1} << 29;

}  // namespace

bool read_csv_line(std::istream& in, std::string& line) {
  if (!std::getline(in, line)) return false;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

CsvRow parse_csv_row(const std::string& line,
                     const std::vector<std::string>& header,
                     const std::string& where) {
  const std::vector<std::string> fields = split_csv_line(line);
  if (fields.size() != header.size()) {
    throw InvalidArgument(where + " has wrong field count (expected " +
                          std::to_string(header.size()) + ", got " +
                          std::to_string(fields.size()) + ")");
  }
  CsvRow row;
  row.node = parse_size(where + " node", fields[0]);
  row.step = parse_size(where + " step", fields[1]);
  row.values.reserve(fields.size() - 2);
  for (std::size_t c = 2; c < fields.size(); ++c) {
    row.values.push_back(
        parse_double(where + " column " + header[c], fields[c]));
  }
  return row;
}

InMemoryTrace load_csv(std::istream& in) {
  // Lines starting with '#' are comments; host recordings (src/host) lead
  // with a '# resmon-host-recording v1' magic line and carry '#' metadata
  // trailers, and must load here as ordinary traces.
  std::string line;
  std::size_t line_no = 0;
  bool have_header = false;
  while (read_csv_line(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    have_header = true;
    break;
  }
  if (!have_header) {
    throw Error("load_csv: empty input");
  }
  const std::vector<std::string> header = split_csv_line(line);
  RESMON_REQUIRE(header.size() >= 3,
                 "trace CSV needs node,step and at least one resource column");
  const std::size_t num_resources = header.size() - 2;

  std::vector<CsvRow> rows;
  std::size_t max_node = 0;
  std::size_t max_step = 0;
  while (read_csv_line(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    const std::string where = "load_csv: line " + std::to_string(line_no);
    CsvRow row = parse_csv_row(line, header, where);
    if (row.node > kMaxIndex || row.step > kMaxIndex) {
      throw Error(where + ": node/step index out of range");
    }
    max_node = std::max(max_node, row.node);
    max_step = std::max(max_step, row.step);
    rows.push_back(std::move(row));
  }
  RESMON_REQUIRE(!rows.empty(), "trace CSV contains no data rows");

  const std::size_t n = max_node + 1;
  const std::size_t steps = max_step + 1;
  // n * steps <= (kMaxIndex + 1)^2 cannot overflow.
  if (n * steps > kMaxCells / num_resources) {
    throw Error("load_csv: " + std::to_string(n) + " nodes x " +
                std::to_string(steps) + " steps x " +
                std::to_string(num_resources) + " resources exceeds the " +
                std::to_string(kMaxCells) + "-cell trace limit");
  }
  InMemoryTrace trace(n, steps, num_resources);

  // Track which cells were provided so gaps can be sample-and-held. The
  // fill runs in the trace's storage order, steps outer: (i, t-1) is final
  // before step t is filled.
  std::vector<bool> seen(n * steps, false);
  for (const CsvRow& row : rows) {
    for (std::size_t r = 0; r < num_resources; ++r) {
      trace.set_value(row.node, row.step, r, row.values[r]);
    }
    seen[row.step * n + row.node] = true;
  }
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      if (seen[t * n + i]) continue;
      // Hold the previous observed value; leading gaps stay at zero.
      if (t > 0) {
        for (std::size_t r = 0; r < num_resources; ++r) {
          trace.set_value(i, t, r, trace.value(i, t - 1, r));
        }
      }
    }
  }
  return trace;
}

InMemoryTrace load_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("load_csv_file: cannot open " + path);
  return load_csv(in);
}

void save_csv(const Trace& trace, std::ostream& out) {
  // max_digits10 significant digits in %g style make save -> load the
  // identity; the caller's format state is restored afterwards.
  const std::ios_base::fmtflags flags =
      out.flags(out.flags() & ~std::ios_base::floatfield);
  const std::streamsize precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "node,step";
  for (std::size_t r = 0; r < trace.num_resources(); ++r) {
    out << ',' << resource_name(r);
  }
  out << '\n';
  for (std::size_t i = 0; i < trace.num_nodes(); ++i) {
    for (std::size_t t = 0; t < trace.num_steps(); ++t) {
      out << i << ',' << t;
      for (std::size_t r = 0; r < trace.num_resources(); ++r) {
        out << ',' << trace.value(i, t, r);
      }
      out << '\n';
    }
  }
  out.flags(flags);
  out.precision(precision);
}

}  // namespace resmon::trace
