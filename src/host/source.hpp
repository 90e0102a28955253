// The host-collection MeasurementSource: how HostSampler plugs into the
// unchanged resmon_agent slot loop.
//
//   ProcfsSamplerSource  live sampling, paced to a fixed interval on the
//                        monotonic clock, optionally teeing every sample
//                        into a RecordingWriter (--record)
//
// Replay (--replay) needs no source of its own: host::read_recording
// returns the recording as a one-node trace, and collect::TraceSource
// reads it bit-exactly with zero clock or procfs reads.
//
// Clock and sleep are injected std::functions (defaulting to the
// lint-allowlisted helpers in clock.hpp), so unit tests pace a
// ProcfsSamplerSource with a hand-advanced fake clock and stay fully
// deterministic.
#pragma once

#include <cstdint>
#include <functional>

#include "collect/measurement_source.hpp"
#include "host/recording.hpp"
#include "host/sampler.hpp"

namespace resmon::host {

class ProcfsSamplerSource final : public collect::MeasurementSource {
 public:
  struct Options {
    std::uint64_t interval_ms = 100;
    /// Monotonic clock / sleep hooks; nullptr selects the real ones.
    std::function<std::uint64_t()> now_ms;
    std::function<void(std::uint64_t)> sleep_ms;
    /// Optional record tee (non-owning; caller calls finish()).
    RecordingWriter* recorder = nullptr;
  };

  /// `sampler` is non-owning and must outlive the source.
  ProcfsSamplerSource(HostSampler& sampler, Options options);

  /// Samples the host, pacing slot t to start_time + t * interval_ms.
  std::vector<double> measurement(std::size_t t) override;

 private:
  HostSampler& sampler_;
  Options options_;
  bool started_ = false;
  std::uint64_t first_sample_ms_ = 0;
};

}  // namespace resmon::host
