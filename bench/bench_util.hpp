// Shared helpers for the experiment harnesses in bench/.
//
// Every binary prints the rows/series of the paper table or figure it
// regenerates. Defaults are laptop-scale; `--full` switches the synthetic
// profiles to the paper's node/step counts, and `--dataset`, `--nodes`,
// `--steps`, `--seed` override individual knobs.
//
// Every error a harness prints is the library's: eq. (3) is core::rmse_step
// or core::intermediate_rmse_step against sim::truth_at, and eq. (4) is
// core::RmseAccumulator, NaN when nothing was scored. A harness refuses
// what it cannot run: harness_args() exits 2 on an unknown flag, and a
// size that scores no slot throws.
#pragma once

#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/metrics.hpp"
#include "obs/export.hpp"
#include "sim/driver.hpp"
#include "sim/evaluate.hpp"
#include "trace/synthetic.hpp"

namespace resmon::bench {

/// Persistent benchmark results: a BENCH_*.json file one row per result,
/// shared by several harnesses. The format is deliberately line-oriented —
/// every row is a single-line JSON object carrying its harness name —
/// so write() can merge without a JSON parser: rows belonging to *other*
/// harnesses are kept verbatim, this harness's previous rows are replaced.
///
/// "results" is the latest snapshot; "history" is an append-only series of
/// per-run entries (one single-line object per harness per labeled run, see
/// write()), so the perf trajectory across PRs is a real series instead of
/// one overwritten snapshot. History lines start with {"run": and are
/// always kept verbatim by the merge.
///
///   {
///     "bench": "resmon-micro",
///     "results": [
///       {"harness": "micro_wire", "name": "encode/8", "ns_per_op": 85.2},
///       {"harness": "micro_parallel_step", "name": "threads=4", ...}
///     ],
///     "history": [
///       {"run": "ci-abc123", "utc": "2026-08-07T12:00:00Z",
///        "harness": "micro_wire", "results": [{...}, {...}]}
///     ]
///   }
class BenchJson {
 public:
  BenchJson(std::string bench_id, std::string harness)
      : bench_id_(std::move(bench_id)), harness_(std::move(harness)) {}

  /// Queue one result row: a name plus numeric fields, emitted in order.
  void add(const std::string& name,
           const std::vector<std::pair<std::string, double>>& fields) {
    std::ostringstream row;
    row << "    {\"harness\": \"" << harness_ << "\", \"name\": \"" << name
        << "\"";
    for (const auto& [key, value] : fields) {
      row << ", \"" << key << "\": ";
      // JSON has no NaN/Inf literals; null marks a failed measurement.
      if (value != value || value > 1e308 || value < -1e308) {
        row << "null";
      } else {
        std::ostringstream num;
        num.precision(12);
        num << value;
        row << num.str();
      }
    }
    row << "}";
    rows_.push_back(row.str());
  }

  /// Merge-write into `path`: keeps rows of other harnesses already in the
  /// file, replaces this harness's rows, rewrites the envelope. History
  /// lines (leading {"run":) are append-only: every existing one is kept
  /// verbatim, and a non-empty `run_label` appends one new entry bundling
  /// this run's rows with the label and a UTC wall-clock stamp (bench/ is
  /// outside the determinism wall; see docs/PERFORMANCE.md).
  void write(const std::string& path, const std::string& run_label = "") const {
    std::vector<std::string> kept;
    std::vector<std::string> history;
    {
      std::ifstream in(path);
      std::string line;
      const std::string ours = "{\"harness\": \"" + harness_ + "\"";
      const std::string run_tag = "{\"run\":";
      while (std::getline(in, line)) {
        const std::size_t brace = line.find('{');
        if (brace == std::string::npos) continue;  // envelope line
        std::string row = line;
        while (!row.empty() && (row.back() == ',' || row.back() == '\r')) {
          row.pop_back();
        }
        if (line.compare(brace, run_tag.size(), run_tag) == 0) {
          history.push_back(row);
          continue;
        }
        if (line.compare(brace, ours.size(), ours) == 0) continue;
        if (row.find("\"harness\"") == std::string::npos) continue;
        kept.push_back(row);
      }
    }
    if (!run_label.empty()) history.push_back(history_entry(run_label));
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"bench\": \"" << bench_id_ << "\",\n  \"results\": [\n";
    bool first = true;
    for (const std::vector<std::string>* rows :
         {static_cast<const std::vector<std::string>*>(&kept), &rows_}) {
      for (const std::string& row : *rows) {
        if (!first) out << ",\n";
        first = false;
        out << row;
      }
    }
    out << "\n  ],\n  \"history\": [";
    first = true;
    for (const std::string& entry : history) {
      out << (first ? "\n" : ",\n") << entry;
      first = false;
    }
    out << (history.empty() ? "" : "\n  ") << "]\n}\n";
    std::cout << "(bench results written to " << path << ")\n";
  }

 private:
  /// One single-line history object for this run: label, UTC stamp, and
  /// this harness's rows inlined (leading indentation stripped).
  std::string history_entry(const std::string& run_label) const {
    char stamp[32] = "";
    const std::time_t now = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&now, &utc) != nullptr) {
      std::strftime(stamp, sizeof(stamp), "%Y-%m-%dT%H:%M:%SZ", &utc);
    }
    std::ostringstream entry;
    entry << "    {\"run\": \"" << run_label << "\", \"utc\": \"" << stamp
          << "\", \"harness\": \"" << harness_ << "\", \"results\": [";
    bool first = true;
    for (const std::string& row : rows_) {
      const std::size_t brace = row.find('{');
      if (!first) entry << ", ";
      first = false;
      entry << row.substr(brace == std::string::npos ? 0 : brace);
    }
    entry << "]}";
    return entry.str();
  }

  std::string bench_id_;
  std::string harness_;
  std::vector<std::string> rows_;
};

/// A harness's --json PATH / --json-run LABEL pair: the sink is written
/// only when --json names a file, so a plain run never rewrites the
/// tracked BENCH_*.json.
struct JsonFlags {
  std::string path;  ///< --json; "" = write nothing
  std::string run;   ///< --json-run; "" = append no history entry

  /// --json-run without --json is a usage error.
  bool valid() const { return !path.empty() || run.empty(); }
  void write(const BenchJson& sink) const {
    if (!path.empty()) sink.write(path, run);
  }
};

/// The JSON flags of an Args-parsed harness.
inline JsonFlags json_flags(const Args& args) {
  return {args.get("json", ""), args.get("json-run", "")};
}

/// Take --json PATH and --json-run LABEL out of argv, so a
/// google-benchmark main can hand the rest to benchmark::Initialize.
inline JsonFlags take_json_flags(int& argc, char** argv) {
  JsonFlags flags;
  for (int i = 1; i + 1 < argc;) {
    std::string* dest = nullptr;
    if (std::strcmp(argv[i], "--json") == 0) dest = &flags.path;
    if (std::strcmp(argv[i], "--json-run") == 0) dest = &flags.run;
    if (dest == nullptr) {
      ++i;
      continue;
    }
    *dest = argv[i + 1];
    for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
    argc -= 2;
  }
  return flags;
}

/// Check an Args-parsed harness's flags against the `known` ones: an
/// unknown flag, or --json-run without --json, prints the problem and
/// `usage` to stderr and returns false (the harness then exits 2).
inline bool flags_ok(const Args& args, std::span<const std::string_view> known,
                     std::string_view usage) {
  const std::string unknown = args.first_unknown(known);
  if (unknown.empty() && json_flags(args).valid()) return true;
  std::cerr << (unknown.empty() ? "--json-run needs --json"
                                : "unknown flag --" + unknown)
            << "\n"
            << usage;
  return false;
}

/// The flags the helpers below read, which every experiment harness takes.
inline constexpr std::string_view kSharedFlags[] = {
    "dataset", "nodes", "steps", "full", "seed",
    "csv", "threads", "metrics-out", "trace-out"};

/// Parse an experiment harness's argv. A flag that neither kSharedFlags nor
/// `own` lists, --help included, prints the usage to stderr and exits 2
/// before any work. From then on a resmon::Error that escapes main, from a
/// flag value or a size the harness cannot run, ends in one line on stderr
/// and exit 2 instead of an abort.
inline Args harness_args(int argc, char** argv,
                         std::initializer_list<std::string_view> own) {
  static const std::string program = argc > 0 ? argv[0] : "harness";
  static const std::terminate_handler fallback = std::set_terminate([] {
    try {
      if (std::current_exception()) throw;
    } catch (const Error& e) {
      std::cerr << program << ": " << e.what() << "\n";
      std::exit(2);
    } catch (...) {
    }
    fallback();
  });
  std::vector<std::string_view> known(std::begin(kSharedFlags),
                                      std::end(kSharedFlags));
  known.insert(known.end(), own);
  std::string usage = "usage: " + program;
  for (const std::string_view flag : known) {
    usage += " [--" + std::string(flag) + "]";
  }
  const Args args(argc, argv);
  if (!flags_ok(args, known, usage + "\n")) std::exit(2);
  return args;
}

/// --eval-stride: score every stride-th slot. Every harness that takes the
/// flag reads it here, before any work; 0 throws (it would divide by zero).
inline std::size_t eval_stride(const Args& args, std::int64_t fallback) {
  const auto stride =
      static_cast<std::size_t>(args.get_int("eval-stride", fallback));
  RESMON_REQUIRE(stride >= 1, "--eval-stride must be at least 1");
  return stride;
}

/// Run `driver` over `t` to the end and return eq. (4) of its forecasts h
/// steps ahead, scored by sim::rmse_at at every step from `first` on that
/// is a multiple of `stride` and has truth h steps ahead.
inline double driver_rmse(sim::Driver& driver, const trace::Trace& t,
                          std::size_t h, std::size_t first,
                          std::size_t stride) {
  core::RmseAccumulator acc;
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    driver.step();
    if (step < first || step % stride != 0 || step + h >= t.num_steps()) {
      continue;
    }
    acc.add(sim::rmse_at(driver.pipeline(), t, h));
  }
  return acc.value();
}

/// Resolve a synthetic profile from CLI flags.
inline trace::SyntheticProfile profile_from_args(const Args& args,
                                                 const std::string& name) {
  trace::SyntheticProfile p = trace::profile_by_name(name);
  if (args.get_bool("full")) p = trace::scale_to_paper(p);
  if (args.has("nodes")) {
    p.num_nodes = static_cast<std::size_t>(args.get_int("nodes", 0));
  }
  if (args.has("steps")) {
    p.num_steps = static_cast<std::size_t>(args.get_int("steps", 0));
  }
  return p;
}

/// The synthetic trace of dataset `name` at the size flags and --seed.
inline trace::InMemoryTrace trace_from_args(const Args& args,
                                            const std::string& name) {
  return trace::generate(profile_from_args(args, name),
                         args.get_int("seed", 1));
}

/// Datasets an experiment sweeps over: either the one named via
/// `--dataset`, or all three evaluation datasets.
inline std::vector<std::string> datasets_from_args(const Args& args) {
  if (args.has("dataset")) return {args.get("dataset", "alibaba")};
  return {"alibaba", "bitbrains", "google"};
}

/// Standard experiment banner.
inline void banner(const std::string& id, const std::string& what) {
  std::cout << "== " << id << " ==\n" << what << "\n\n";
}

/// Print a table plus an optional CSV copy when --csv <path> is given.
inline void emit(const Table& table, const Args& args) {
  table.print(std::cout);
  if (args.has("csv")) {
    const std::string path = args.get("csv", "");
    table.save_csv(path);
    std::cout << "\n(csv written to " << path << ")\n";
  }
}

/// Honor --metrics-out FILE.prom / --trace-out FILE.jsonl: dump the run's
/// observability sinks to disk. `trace_events` may be null when the harness
/// has no trace buffer.
inline void emit_observability(const Args& args,
                               const obs::MetricsRegistry& registry,
                               const obs::TraceBuffer* trace_events = nullptr) {
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "");
    obs::write_metrics_file(path, registry);
    std::cout << "(metrics written to " << path << ")\n";
  }
  if (args.has("trace-out") && trace_events != nullptr) {
    const std::string path = args.get("trace-out", "");
    obs::write_trace_file(path, *trace_events);
    std::cout << "(trace events written to " << path << ")\n";
  }
}

}  // namespace resmon::bench
