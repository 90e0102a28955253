// Golden-trace regression for the threading model: the full pipeline on a
// seeded synthetic trace must produce bit-identical outputs at every thread
// count (PipelineOptions::num_threads ∈ {1, 2, 8}) and across repeated
// runs. Covers forecasts, RMSE metrics, cluster memberships and the
// link's byte/message accounting, on both a reliable and a lossy/delayed
// (faultnet) uplink.
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.hpp"
#include "common/kernels.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "golden_fixture.hpp"
#include "sim/driver.hpp"
#include "sim/evaluate.hpp"
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
  std::size_t fits = 0;  // completed model fits, all models
};

std::vector<double> flatten(const Matrix& m) {
  return m.data();
}

RunRecord run_pipeline(core::PipelineOptions options, std::size_t threads,
                       const faultnet::FaultSpec& faults = {}) {
  options.num_threads = threads;
  const trace::Trace& t = shared_trace();
  sim::Driver driver(t, options, faults);
  const core::MonitoringPipeline& p = driver.pipeline();
  RunRecord rec;
  for (std::size_t step = 0; step < kSteps; ++step) {
    driver.step();
    if (!p.central_store().complete()) continue;
    if (step % 25 == 0 && step + 1 < kSteps) {
      rec.sampled_rmse0.push_back(sim::rmse_at(p, t, 0));
      rec.sampled_intermediate_rmse.push_back(sim::intermediate_rmse(p, t));
    }
  }
  rec.forecast_h1 = flatten(p.forecast_all(1));
  rec.forecast_h4 = flatten(p.forecast_all(4));
  for (std::size_t v = 0; v < p.num_views(); ++v) {
    rec.memberships.push_back(p.history(v).at(0).clustering.assignment);
    for (std::size_t j = 0; j < options.num_clusters; ++j) {
      rec.fits += p.model(v, j).fits_completed();
    }
  }
  rec.messages_sent = driver.collector().messages_sent();
  rec.bytes_sent = driver.collector().bytes_sent();
  rec.messages_dropped =
      driver.faults() != nullptr ? driver.faults()->messages_dropped() : 0;
  rec.avg_frequency = driver.collector().average_actual_frequency();
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
  EXPECT_EQ(a.fits, b.fits) << label;
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

// The other cases refit Holt-Winters models; this one refits ARIMA, whose
// models due in a slot fit in lockstep within each pool task. Six retrain
// slots fall inside the run.
TEST(ParallelDeterminism, ArimaRefitsBitIdenticalAcrossThreadCounts) {
  core::PipelineOptions o = base_options();
  o.forecaster = forecast::ForecasterKind::kArima;
  o.schedule = {.initial_steps = 120, .retrain_interval = 48};
  const RunRecord serial = run_pipeline(o, 1);
  EXPECT_GE(serial.fits, 6 * o.num_clusters);
  expect_identical(serial, run_pipeline(o, 2), "arima threads=2");
  expect_identical(serial, run_pipeline(o, 4), "arima threads=4");
}

TEST(ParallelDeterminism, RepeatedRunsAreStable) {
  const RunRecord first = run_pipeline(base_options(), 2);
  const RunRecord second = run_pipeline(base_options(), 2);
  expect_identical(first, second, "repeat threads=2");
}

TEST(ParallelDeterminism, LossyDelayedUplinkBitIdenticalAcrossThreadCounts) {
  const faultnet::FaultSpec faults =
      faultnet::FaultSpec::parse("drop=0.15;delay=0.6667:2;seed=7");
  const RunRecord serial = run_pipeline(base_options(), 1, faults);
  EXPECT_GT(serial.messages_dropped, 0u);
  expect_identical(serial, run_pipeline(base_options(), 2, faults),
                   "lossy threads=2");
  expect_identical(serial, run_pipeline(base_options(), 8, faults),
                   "lossy threads=8");
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

TEST(ParallelDeterminism, TwoForecastAllReadersMatchSerial) {
  // forecast_all() is const, so two threads may query one pipeline at once:
  // neither may race (the TSan job runs this) nor disturb the other's
  // values. ARIMA horizons past 64 also take its heap forecast buffer.
  core::PipelineOptions o = base_options();
  o.forecaster = forecast::ForecasterKind::kArima;
  sim::Driver driver(shared_trace(), o);
  driver.run(200);
  const core::MonitoringPipeline& p = driver.pipeline();
  ASSERT_TRUE(p.central_store().complete());
  const std::vector<std::size_t> horizons{1, 4, 64, 65, 70};
  std::vector<std::vector<double>> serial;
  for (const std::size_t h : horizons) {
    serial.push_back(flatten(p.forecast_all(h)));
  }

  constexpr std::size_t kReaders = 2;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<std::vector<double>>> seen(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&p, &horizons, &out = seen[r]] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (const std::size_t h : horizons) {
          out.push_back(flatten(p.forecast_all(h)));
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (std::size_t r = 0; r < kReaders; ++r) {
    ASSERT_EQ(seen[r].size(), kRounds * horizons.size());
    for (std::size_t i = 0; i < seen[r].size(); ++i) {
      EXPECT_EQ(seen[r][i], serial[i % horizons.size()])
          << "reader " << r << ", h = " << horizons[i % horizons.size()];
    }
  }
}

/// One K-means run of `points` on the active kernel path.
cluster::KMeansResult pooled_kmeans(const Matrix& points, std::size_t k,
                                    ThreadPool* pool) {
  Rng rng(5);
  return cluster::kmeans(points, k, rng,
                         {.max_iterations = 20, .restarts = 2, .pool = pool});
}

void expect_same_kmeans(const cluster::KMeansResult& a,
                        const cluster::KMeansResult& b,
                        const std::string& label) {
  EXPECT_EQ(a.assignment, b.assignment) << label;
  EXPECT_EQ(a.iterations, b.iterations) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.inertia),
            std::bit_cast<std::uint64_t>(b.inertia))
      << label;
  ASSERT_EQ(a.centroids.data().size(), b.centroids.data().size()) << label;
  for (std::size_t e = 0; e < a.centroids.data().size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.centroids.data()[e]),
              std::bit_cast<std::uint64_t>(b.centroids.data()[e]))
        << label << " centroid entry " << e;
  }
}

TEST(ParallelDeterminism, PooledLloydMatchesSerial) {
  // Both shapes clear K-means' n*k*d work threshold, so a pool really runs
  // the Lloyd pass on its workers (the golden runs stay below it): the
  // joint d = 4 view on the one-chunk loop, and the d = 1 view on the
  // chunk lanes. Each must equal the serial run bit for bit on both
  // kernel paths, with 2 and 4 workers.
  struct Shape {
    std::size_t n, d;
  };
  const kern::Path saved = kern::active_path();
  std::vector<kern::Path> paths{kern::Path::kScalar};
  if (kern::simd_supported()) paths.push_back(kern::Path::kSimd);
  ThreadPool two(2);
  ThreadPool four(4);
  for (const Shape shape : {Shape{65536, 4}, Shape{180000, 1}}) {
    Rng data_rng(shape.n + shape.d);
    Matrix points(shape.n, shape.d);
    for (double& v : points.data()) v = data_rng.uniform();
    for (const kern::Path path : paths) {
      kern::set_path(path);
      const std::string label = "n " + std::to_string(shape.n) + " d " +
                                std::to_string(shape.d) + " path " +
                                std::to_string(static_cast<int>(path));
      const cluster::KMeansResult serial = pooled_kmeans(points, 3, nullptr);
      expect_same_kmeans(serial, pooled_kmeans(points, 3, &two),
                         label + " threads=2");
      expect_same_kmeans(serial, pooled_kmeans(points, 3, &four),
                         label + " threads=4");
    }
  }
  kern::set_path(saved);
}

}  // namespace
}  // namespace resmon
