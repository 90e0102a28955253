// Live host sampling, assembled once for the two binaries that read the
// kernel: resmon_agent --source procfs and resmon host-sample.
//
// LiveSampling reads their shared flags — --procfs-root (default /proc),
// --pid P|self (one process tree instead of the whole host),
// --interval-ms (the sampling pace; each binary keeps its own default) and
// --record FILE (tee every sample into a replayable recording) — and owns
// the procfs view, the HostSampler, the optional recording and the paced
// ProcfsSamplerSource over them (DESIGN.md "Host collection").
#pragma once

#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "host/procfs.hpp"
#include "host/recording.hpp"
#include "host/sampler.hpp"
#include "host/source.hpp"

namespace resmon::tools {

class LiveSampling {
 public:
  /// Every flag is checked here, before the first sample: --interval-ms 0
  /// and a --record file that cannot be opened throw InvalidArgument
  /// naming the flag. The resmon_host_* families register in `metrics`.
  LiveSampling(const Args& args, std::uint64_t default_interval_ms,
               obs::MetricsRegistry& metrics)
      : procfs_(args.get("procfs-root", "/proc")),
        sampler_(procfs_, sampler_options(args, metrics)) {
    host::ProcfsSamplerSource::Options options;
    options.interval_ms = interval_flag(args, default_interval_ms);
    if (args.has("record")) {
      const std::string path = args.get("record", "");
      record_out_.open(path);
      if (!record_out_) {
        throw InvalidArgument("flag --record: cannot open " + path);
      }
      recorder_.emplace(record_out_, options.interval_ms,
                        host::HostSampler::kNumResources);
      options.recorder = &*recorder_;
    }
    source_.emplace(sampler_, options);
  }
  // The sampler and the source point into this object.
  LiveSampling(const LiveSampling&) = delete;
  LiveSampling& operator=(const LiveSampling&) = delete;

  /// One d = HostSampler::kNumResources vector per slot, paced to
  /// --interval-ms.
  collect::MeasurementSource& source() { return *source_; }

  std::uint64_t samples_taken() const { return sampler_.samples_taken(); }

  /// Writes the recording's trailer; call once after the last slot.
  void finish() {
    if (recorder_.has_value()) recorder_->finish();
  }

 private:
  static std::uint64_t interval_flag(const Args& args,
                                     std::uint64_t fallback) {
    const auto ms = static_cast<std::uint64_t>(
        args.get_int("interval-ms", static_cast<std::int64_t>(fallback)));
    if (ms == 0) {
      throw InvalidArgument("flag --interval-ms: must be at least 1 ms");
    }
    return ms;
  }

  static host::HostSamplerOptions sampler_options(
      const Args& args, obs::MetricsRegistry& metrics) {
    host::HostSamplerOptions options;
    if (args.has("pid")) {
      options.watch_pids = {args.get("pid", "") == "self"
                                ? static_cast<std::uint64_t>(::getpid())
                                : static_cast<std::uint64_t>(
                                      args.get_int("pid", 0))};
    }
    options.page_size = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    options.metrics = &metrics;
    return options;
  }

  host::DirProcfs procfs_;
  host::HostSampler sampler_;
  std::ofstream record_out_;
  std::optional<host::RecordingWriter> recorder_;
  std::optional<host::ProcfsSamplerSource> source_;
};

}  // namespace resmon::tools
