#include "host/parsers.hpp"

#include <charconv>
#include <sstream>
#include <vector>

namespace resmon::host {

namespace {

/// Split on runs of spaces/tabs (procfs pads columns with both).
std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::string token;
  std::istringstream ss(line);
  while (ss >> token) out.push_back(token);
  return out;
}

/// Split into lines, dropping a trailing '\r' (defensive; procfs never
/// emits one but recordings may cross filesystems).
std::vector<std::string> split_lines(const std::string& contents) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream ss(contents);
  while (std::getline(ss, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  return lines;
}

}  // namespace

std::uint64_t parse_u64_field(const std::string& file, std::size_t line,
                              const std::string& field,
                              const std::string& token) {
  if (token.empty()) {
    throw HostParseError(file, line, field, "empty counter field");
  }
  std::uint64_t value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    throw HostParseError(file, line, field,
                         "counter '" + token + "' overflows 64 bits");
  }
  if (ec != std::errc() || ptr != end) {
    throw HostParseError(file, line, field,
                         "expected an unsigned integer, got '" + token + "'");
  }
  return value;
}

CpuJiffies parse_proc_stat(const std::string& contents,
                           const std::string& file) {
  const std::vector<std::string> lines = split_lines(contents);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::vector<std::string> tok = split_ws(lines[i]);
    if (tok.empty() || tok[0] != "cpu") continue;
    // user nice system idle are mandatory since Linux 2.6; the later
    // columns (iowait irq softirq steal) appear on any kernel this runs
    // on, but tolerate their absence as zero.
    if (tok.size() < 5) {
      throw HostParseError(file, i + 1, "cpu",
                           "aggregate cpu line has " +
                               std::to_string(tok.size() - 1) +
                               " counters, need >= 4");
    }
    static const char* kNames[] = {"user", "nice",    "system", "idle",
                                   "iowait", "irq", "softirq", "steal"};
    std::uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t f = 0; f < 8 && f + 1 < tok.size(); ++f) {
      v[f] = parse_u64_field(file, i + 1, kNames[f], tok[f + 1]);
    }
    return CpuJiffies{.user = v[0],
                      .nice = v[1],
                      .system = v[2],
                      .idle = v[3],
                      .iowait = v[4],
                      .irq = v[5],
                      .softirq = v[6],
                      .steal = v[7]};
  }
  throw HostParseError(file, 1, "cpu", "no aggregate 'cpu ' line");
}

MemInfo parse_meminfo(const std::string& contents, const std::string& file) {
  const std::vector<std::string> lines = split_lines(contents);
  MemInfo info;
  bool saw_total = false;
  bool saw_available = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::vector<std::string> tok = split_ws(lines[i]);
    if (tok.size() < 2) continue;
    if (tok[0] == "MemTotal:") {
      info.total_kb = parse_u64_field(file, i + 1, "MemTotal", tok[1]);
      saw_total = true;
    } else if (tok[0] == "MemAvailable:") {
      info.available_kb =
          parse_u64_field(file, i + 1, "MemAvailable", tok[1]);
      saw_available = true;
    }
  }
  if (!saw_total) {
    throw HostParseError(file, lines.size(), "MemTotal", "line missing");
  }
  if (!saw_available) {
    throw HostParseError(file, lines.size(), "MemAvailable", "line missing");
  }
  if (info.total_kb == 0) {
    throw HostParseError(file, 1, "MemTotal", "is zero");
  }
  return info;
}

PidStat parse_pid_stat(const std::string& contents, const std::string& file) {
  // Format: pid (comm) state ppid ... utime(14) stime(15) ...
  // comm may contain ' ' and ')', so the split point is the LAST ')'.
  const std::vector<std::string> lines = split_lines(contents);
  if (lines.empty() || lines[0].empty()) {
    throw HostParseError(file, 1, "pid", "file is empty");
  }
  const std::string& line = lines[0];
  const std::size_t open = line.find('(');
  const std::size_t close = line.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    throw HostParseError(file, 1, "comm",
                         "no parenthesised comm field");
  }
  PidStat st;
  {
    const std::string pid_text = line.substr(0, open);
    const std::vector<std::string> tok = split_ws(pid_text);
    if (tok.size() != 1) {
      throw HostParseError(file, 1, "pid", "expected 'PID (comm) ...'");
    }
    st.pid = parse_u64_field(file, 1, "pid", tok[0]);
  }
  st.comm = line.substr(open + 1, close - open - 1);
  const std::vector<std::string> tail = split_ws(line.substr(close + 1));
  // tail[0]=state(3) tail[1]=ppid(4) ... tail[11]=utime(14) tail[12]=stime(15)
  if (tail.size() < 13) {
    throw HostParseError(file, 1, "stime",
                         "truncated stat line: " +
                             std::to_string(tail.size()) +
                             " fields after comm, need >= 13");
  }
  if (tail[0].size() != 1) {
    throw HostParseError(file, 1, "state",
                         "expected a single state character, got '" +
                             tail[0] + "'");
  }
  st.state = tail[0][0];
  st.ppid = parse_u64_field(file, 1, "ppid", tail[1]);
  st.utime = parse_u64_field(file, 1, "utime", tail[11]);
  st.stime = parse_u64_field(file, 1, "stime", tail[12]);
  return st;
}

std::uint64_t parse_statm_rss_pages(const std::string& contents,
                                    const std::string& file) {
  const std::vector<std::string> tok = split_ws(contents);
  if (tok.size() < 2) {
    throw HostParseError(file, 1, "resident",
                         "statm has " + std::to_string(tok.size()) +
                             " fields, need >= 2");
  }
  return parse_u64_field(file, 1, "resident", tok[1]);
}

PidIo parse_pid_io(const std::string& contents, const std::string& file) {
  const std::vector<std::string> lines = split_lines(contents);
  PidIo io;
  bool saw_read = false;
  bool saw_write = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::vector<std::string> tok = split_ws(lines[i]);
    if (tok.size() < 2) continue;
    if (tok[0] == "read_bytes:") {
      io.read_bytes = parse_u64_field(file, i + 1, "read_bytes", tok[1]);
      saw_read = true;
    } else if (tok[0] == "write_bytes:") {
      io.write_bytes = parse_u64_field(file, i + 1, "write_bytes", tok[1]);
      saw_write = true;
    }
  }
  if (!saw_read) {
    throw HostParseError(file, lines.size(), "read_bytes", "line missing");
  }
  if (!saw_write) {
    throw HostParseError(file, lines.size(), "write_bytes", "line missing");
  }
  return io;
}

NetDevTotals parse_net_dev(const std::string& contents,
                           const std::string& file) {
  // Two header lines, then "iface: rx_bytes ... (8 rx cols) tx_bytes ...".
  const std::vector<std::string> lines = split_lines(contents);
  NetDevTotals totals;
  bool saw_interface = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t colon = lines[i].find(':');
    if (colon == std::string::npos) continue;  // header lines
    const std::string iface = split_ws(lines[i].substr(0, colon)).empty()
                                  ? std::string()
                                  : split_ws(lines[i].substr(0, colon))[0];
    const std::vector<std::string> tok =
        split_ws(lines[i].substr(colon + 1));
    if (iface.empty()) {
      throw HostParseError(file, i + 1, "interface", "empty interface name");
    }
    if (tok.size() < 16) {
      throw HostParseError(file, i + 1, iface,
                           "interface row has " + std::to_string(tok.size()) +
                               " counters, need 16");
    }
    saw_interface = true;
    if (iface == "lo") continue;  // loopback traffic is not uplink load
    totals.rx_bytes +=
        parse_u64_field(file, i + 1, iface + " rx_bytes", tok[0]);
    totals.tx_bytes +=
        parse_u64_field(file, i + 1, iface + " tx_bytes", tok[8]);
  }
  if (!saw_interface) {
    throw HostParseError(file, lines.size(), "interface",
                         "no interface rows");
  }
  return totals;
}

DiskTotals parse_diskstats(const std::string& contents,
                           const std::string& file) {
  const std::vector<std::string> lines = split_lines(contents);
  DiskTotals totals;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::vector<std::string> tok = split_ws(lines[i]);
    // major minor name reads merged sectors_read ms writes merged
    // sectors_written ...
    if (tok.size() < 10) {
      throw HostParseError(file, i + 1, "sectors_written",
                           "diskstats row has " +
                               std::to_string(tok.size()) +
                               " fields, need >= 10");
    }
    const std::string& name = tok[2];
    if (name.rfind("loop", 0) == 0 || name.rfind("ram", 0) == 0) continue;
    totals.sectors_read +=
        parse_u64_field(file, i + 1, name + " sectors_read", tok[5]);
    totals.sectors_written +=
        parse_u64_field(file, i + 1, name + " sectors_written", tok[9]);
  }
  return totals;
}

}  // namespace resmon::host
