// Versioned host-recording files: the determinism bridge for live
// sampling.
//
// `resmon_agent --source procfs --record FILE` persists every sampled
// measurement vector plus its monotonic timestamp; `--source replay
// --replay FILE` re-runs the identical series bit-exactly with zero clock
// or procfs reads, so a live run is as replayable as a synthetic one
// (test_host asserts bit-identical forecasts; scripts/net_smoke.sh
// --source procfs replays a live recording over real TCP).
// A recording is a trace: read_recording returns the one-node
// trace::InMemoryTrace, and replay reads it through collect::TraceSource.
//
// Format — a strict superset of the src/trace CSV grammar, so recordings
// double as ordinary traces for trace::load_csv and every offline tool:
//
//   # resmon-host-recording v1            <- magic, line 1 exactly
//   # interval_ms=100 resources=4         <- metadata, line 2
//   node,step,cpu,memory,io,net           <- trace CSV header
//   0,0,0.25,0.41,0,0                     <- one row per sample (node 0,
//   ...                                      consecutive steps, %.17g so
//                                            doubles round-trip bit-exactly)
//   # ts_ms=83211,83311,...               <- per-row monotonic timestamps
//   # end rows=N                          <- trailer; absence = truncation
//
// The data rows go through the trace CSV row reader (trace::parse_csv_row,
// the finite-number rule of common/parse.hpp), so both readers accept the
// same cells. The reader rejects a missing/garbled magic line, malformed
// metadata, non-consecutive steps, wrong column counts, unparseable values,
// a timestamp list whose length disagrees with the rows, and a missing or
// mismatched end trailer — each with a HostParseError naming file, line
// and field. The metadata and timestamps are validated, not returned: no
// program reads them after loading.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "host/parsers.hpp"
#include "trace/trace.hpp"

namespace resmon::host {

inline constexpr const char* kRecordingMagic = "# resmon-host-recording v1";

/// Streams a recording to `out`. The header is written at construction;
/// call append() once per slot in order and finish() exactly once at the
/// end (a recording without its trailer is diagnosed as truncated on
/// load).
class RecordingWriter {
 public:
  RecordingWriter(std::ostream& out, std::uint64_t interval_ms,
                  std::size_t num_resources);
  ~RecordingWriter() = default;
  RecordingWriter(const RecordingWriter&) = delete;
  RecordingWriter& operator=(const RecordingWriter&) = delete;

  void append(std::span<const double> values, std::uint64_t ts_ms);
  void finish();

 private:
  std::ostream& out_;
  std::size_t num_resources_;
  std::size_t rows_ = 0;
  bool finished_ = false;
  std::vector<std::uint64_t> timestamps_ms_;
};

/// Parse a recording into a trace of 1 node, one step per sample and the
/// recorded resources; `origin` names the input in diagnostics.
trace::InMemoryTrace read_recording(std::istream& in,
                                    const std::string& origin);
trace::InMemoryTrace read_recording_file(const std::string& path);

}  // namespace resmon::host
