// Golden-trace regression for the threading model: the full pipeline on a
// seeded synthetic trace must produce bit-identical outputs at every thread
// count (PipelineOptions::num_threads ∈ {1, 2, 8}) and across repeated
// runs. Covers forecasts, RMSE metrics, cluster memberships and the
// link's byte/message accounting, on both a reliable and a lossy/delayed
// (faultnet) uplink.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "golden_fixture.hpp"
#include "trace/synthetic.hpp"

namespace resmon {
namespace {

constexpr std::size_t kSteps = 400;  // golden_alibaba_trace() step count

const trace::InMemoryTrace& shared_trace() {
  return testing::golden_alibaba_trace();
}

/// Everything a pipeline run produces that downstream consumers can see.
struct RunRecord {
  std::vector<double> forecast_h1;
  std::vector<double> forecast_h4;
  std::vector<double> sampled_rmse0;
  std::vector<double> sampled_intermediate_rmse;
  std::vector<std::vector<std::size_t>> memberships;  // per view
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_dropped = 0;
  double avg_frequency = 0.0;
};

std::vector<double> flatten(const Matrix& m) {
  return m.data();
}

RunRecord run_pipeline(core::PipelineOptions options, std::size_t threads) {
  options.num_threads = threads;
  const trace::Trace& t = shared_trace();
  core::MonitoringPipeline p(t, options);
  RunRecord rec;
  for (std::size_t step = 0; step < kSteps; ++step) {
    p.step();
    if (!p.central_store().complete()) continue;
    if (step % 25 == 0 && step + 1 < kSteps) {
      rec.sampled_rmse0.push_back(p.rmse_at(0));
      rec.sampled_intermediate_rmse.push_back(p.intermediate_rmse());
    }
  }
  rec.forecast_h1 = flatten(p.forecast_all(1));
  rec.forecast_h4 = flatten(p.forecast_all(4));
  for (std::size_t v = 0; v < p.num_views(); ++v) {
    rec.memberships.push_back(p.tracker(v).history(0).assignment);
  }
  rec.messages_sent = p.collector().link().messages_sent();
  rec.bytes_sent = p.collector().link().bytes_sent();
  rec.messages_dropped = p.collector().link().messages_dropped();
  rec.avg_frequency = p.collector().average_actual_frequency();
  return rec;
}

/// Bit-identical comparison: every double must match exactly, every
/// membership and counter as well.
void expect_identical(const RunRecord& a, const RunRecord& b,
                      const std::string& label) {
  ASSERT_EQ(a.forecast_h1.size(), b.forecast_h1.size()) << label;
  for (std::size_t i = 0; i < a.forecast_h1.size(); ++i) {
    ASSERT_EQ(a.forecast_h1[i], b.forecast_h1[i]) << label << " h1[" << i
                                                  << "]";
    ASSERT_EQ(a.forecast_h4[i], b.forecast_h4[i]) << label << " h4[" << i
                                                  << "]";
  }
  ASSERT_EQ(a.sampled_rmse0.size(), b.sampled_rmse0.size()) << label;
  for (std::size_t i = 0; i < a.sampled_rmse0.size(); ++i) {
    ASSERT_EQ(a.sampled_rmse0[i], b.sampled_rmse0[i])
        << label << " rmse0 sample " << i;
    ASSERT_EQ(a.sampled_intermediate_rmse[i], b.sampled_intermediate_rmse[i])
        << label << " intermediate sample " << i;
  }
  ASSERT_EQ(a.memberships, b.memberships) << label;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << label;
  EXPECT_EQ(a.bytes_sent, b.bytes_sent) << label;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << label;
  EXPECT_EQ(a.avg_frequency, b.avg_frequency) << label;
}

core::PipelineOptions base_options() {
  core::PipelineOptions o;
  o.num_clusters = 3;
  o.forecaster = forecast::ForecasterKind::kHoltWinters;
  o.schedule = {.initial_steps = 120, .retrain_interval = 96};
  o.seed = 7;
  return o;
}

TEST(ParallelDeterminism, ReliableUplinkBitIdenticalAcrossThreadCounts) {
  const RunRecord serial = run_pipeline(base_options(), 1);
  ASSERT_FALSE(serial.forecast_h1.empty());
  ASSERT_GE(serial.sampled_rmse0.size(), 10u);
  expect_identical(serial, run_pipeline(base_options(), 2), "threads=2");
  expect_identical(serial, run_pipeline(base_options(), 8), "threads=8");
}

TEST(ParallelDeterminism, RepeatedRunsAreStable) {
  const RunRecord first = run_pipeline(base_options(), 2);
  const RunRecord second = run_pipeline(base_options(), 2);
  expect_identical(first, second, "repeat threads=2");
}

TEST(ParallelDeterminism, LossyDelayedUplinkBitIdenticalAcrossThreadCounts) {
  core::PipelineOptions o = base_options();
  o.faults = faultnet::FaultSpec::parse("drop=0.15;delay=0.6667:2;seed=7");
  const RunRecord serial = run_pipeline(o, 1);
  EXPECT_GT(serial.messages_dropped, 0u);
  expect_identical(serial, run_pipeline(o, 2), "lossy threads=2");
  expect_identical(serial, run_pipeline(o, 8), "lossy threads=8");
}

TEST(ParallelDeterminism, TemporalWindowPathBitIdentical) {
  core::PipelineOptions o = base_options();
  o.temporal_window = 4;
  expect_identical(run_pipeline(o, 1), run_pipeline(o, 8),
                   "temporal window threads=8");
}

TEST(ParallelDeterminism, HardwareConcurrencyModeMatchesSerial) {
  // num_threads = 0 resolves to hardware concurrency; still bit-identical.
  expect_identical(run_pipeline(base_options(), 1),
                   run_pipeline(base_options(), 0), "threads=hw");
}

}  // namespace
}  // namespace resmon
