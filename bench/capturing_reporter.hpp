// The reporter the google-benchmark harnesses share. It lives apart from
// bench_util.hpp because it needs benchmark/benchmark.h, which the
// harnesses that do not link google-benchmark cannot include.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace resmon::bench {

/// Console output as usual, plus every iteration row captured for the
/// persistent BENCH_micro.json sink.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(BenchJson* sink) : sink_(sink) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::vector<std::pair<std::string, double>> fields = {
          // GetAdjustedRealTime() is in the benchmark's display unit.
          {"ns_per_op", run.GetAdjustedRealTime() * 1e9 /
                            benchmark::GetTimeUnitMultiplier(run.time_unit)},
          {"iterations", static_cast<double>(run.iterations)}};
      const auto bytes = run.counters.find("bytes_per_second");
      if (bytes != run.counters.end()) {
        fields.emplace_back("bytes_per_second", bytes->second.value);
      }
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        fields.emplace_back("items_per_second", items->second.value);
      }
      sink_->add(run.benchmark_name(), fields);
    }
  }

 private:
  BenchJson* sink_;
};

}  // namespace resmon::bench
