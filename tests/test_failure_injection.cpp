// Failure-injection tests: out-of-order delivery, the deadband policy, the
// pipeline's behaviour under an unreliable uplink, and the faultnet chaos
// harness.
#include <cmath>

#include <gtest/gtest.h>

#include "collect/deadband_transmitter.hpp"
#include "collect/fleet_collector.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "faultnet/fault_spec.hpp"
#include "golden_fixture.hpp"
#include "trace/synthetic.hpp"
#include "transport/channel.hpp"

namespace resmon {
namespace {

// ---- out-of-order delivery -------------------------------------------------

TEST(DelayedChannel, OutOfOrderDeliveryKeepsFreshestInStore) {
  // Older messages surfacing after newer ones must not overwrite them.
  transport::CentralStore store(1, 1);
  store.apply({.node = 0, .step = 10, .values = {0.9}});
  store.apply({.node = 0, .step = 4, .values = {0.1}});  // late arrival
  EXPECT_DOUBLE_EQ(store.stored(0)[0], 0.9);
}

// ---- deadband policy -------------------------------------------------------

TEST(Deadband, ValidatesOptions) {
  EXPECT_THROW(collect::DeadbandTransmitter({.delta = 0.0}),
               InvalidArgument);
  EXPECT_THROW(collect::DeadbandTransmitter({.adaptation_rate = 1.0}),
               InvalidArgument);
  EXPECT_THROW(
      collect::DeadbandTransmitter({.min_delta = 0.5, .max_delta = 0.1}),
      InvalidArgument);
}

TEST(Deadband, TransmitsFirstMeasurement) {
  collect::DeadbandTransmitter tx({});
  EXPECT_TRUE(tx.decide(0, std::vector<double>{0.5}));
}

TEST(Deadband, FixedDeltaSendsOnlyOnChange) {
  collect::DeadbandTransmitter tx(
      {.delta = 0.1, .target_frequency = 0.0});  // calibration off
  EXPECT_TRUE(tx.decide(0, std::vector<double>{0.5}));
  EXPECT_FALSE(tx.decide(1, std::vector<double>{0.55}));  // within band
  EXPECT_TRUE(tx.decide(2, std::vector<double>{0.7}));    // outside band
  EXPECT_EQ(tx.transmissions(), 2u);
}

TEST(Deadband, CalibrationTracksTargetFrequency) {
  collect::DeadbandTransmitter tx(
      {.delta = 0.5, .target_frequency = 0.3, .adaptation_rate = 0.05});
  Rng rng(4);
  double x = 0.5;
  for (std::size_t t = 0; t < 5000; ++t) {
    x = std::clamp(x + rng.normal(0.0, 0.05), 0.0, 1.0);
    tx.decide(t, std::vector<double>{x});
  }
  EXPECT_NEAR(tx.actual_frequency(), 0.3, 0.06);
}

TEST(Deadband, FleetFactorySupportsIt) {
  const trace::InMemoryTrace t =
      testing::make_golden_trace("alibaba", 10, 500, 5);
  collect::FleetCollector fleet(
      t, collect::make_policy_factory(collect::PolicyKind::kDeadband, 0.3));
  for (std::size_t step = 0; step < t.num_steps(); ++step) fleet.step(step);
  EXPECT_NEAR(fleet.average_actual_frequency(), 0.3, 0.1);
}

// ---- pipeline under failure ------------------------------------------------

/// An unreliable uplink: each frame is lost with probability `drop`, and
/// delayed by a uniform 0..`delay` slots (delay=K/(K+1):K).
core::PipelineOptions lossy_options(double drop, std::size_t delay) {
  core::PipelineOptions o;
  o.num_clusters = 3;
  o.schedule = {.initial_steps = 50, .retrain_interval = 100};
  o.faults.drop = drop;
  if (delay > 0) {
    o.faults.delay =
        static_cast<double>(delay) / static_cast<double>(delay + 1);
    o.faults.max_delay_slots = delay;
  }
  o.faults.seed = 9;
  return o;
}

TEST(PipelineFailures, SurvivesDropsAndDelays) {
  const trace::InMemoryTrace t =
      testing::make_golden_trace("google", 20, 300, 6);
  core::MonitoringPipeline pipeline(t, lossy_options(0.2, 2));
  pipeline.run(300);
  EXPECT_TRUE(pipeline.done());
  const Matrix f = pipeline.forecast_all(1);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      EXPECT_TRUE(std::isfinite(f(i, r)));
    }
  }
}

TEST(PipelineFailures, LossRaisesCollectionError) {
  const trace::InMemoryTrace t =
      testing::make_golden_trace("google", 25, 400, 7);

  auto run_rmse = [&](double drop) {
    core::MonitoringPipeline pipeline(t, lossy_options(drop, 0));
    core::RmseAccumulator acc;
    while (!pipeline.done()) {
      pipeline.step();
      if (!pipeline.central_store().complete()) continue;  // warm-up
      acc.add(pipeline.rmse_at(0));
    }
    return acc.value();
  };
  // 40% loss must hurt the stored view relative to a reliable uplink.
  EXPECT_GT(run_rmse(0.4), run_rmse(0.0));
}

// ---- chaos harness in the pipeline ----------------------------------------

TEST(PipelineChaos, DuplicationAndReorderMatchTheGoldenRunBitForBit) {
  // Duplicates are deduped by the store (freshest-wins) and a shuffled
  // drain batch holds at most one fresh sample per node, so these wire
  // faults must be invisible: the chaos run's forecasts equal the clean
  // run's exactly, double for double.
  const trace::InMemoryTrace t =
      testing::make_golden_trace("google", 15, 250, 11);

  // Stop one slot short so rmse_at(1) still has ground truth to score
  // against.
  core::PipelineOptions clean = lossy_options(0.0, 0);
  core::MonitoringPipeline golden(t, clean);
  golden.run(249);

  core::PipelineOptions chaos = lossy_options(0.0, 0);
  chaos.faults = faultnet::FaultSpec::parse("dup=0.4;reorder=0.6;seed=13");
  core::MonitoringPipeline noisy(t, chaos);
  noisy.run(249);

  // The faults really fired...
  const auto injected = [&](const char* kind) {
    return noisy.metrics()
        .value("resmon_faultnet_injected_total", {{"fault", kind}})
        .value_or(0.0);
  };
  EXPECT_GT(injected("duplicate"), 0.0);
  EXPECT_GT(injected("reorder"), 0.0);

  // ...and changed nothing observable.
  const Matrix expected = golden.forecast_all(1);
  const Matrix actual = noisy.forecast_all(1);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      EXPECT_EQ(expected(i, r), actual(i, r)) << "node " << i;
    }
  }
  EXPECT_DOUBLE_EQ(golden.rmse_at(1), noisy.rmse_at(1));
}

TEST(PipelineChaos, CorruptedFramesAreCrcRejectedNeverFatal) {
  const trace::InMemoryTrace t =
      testing::make_golden_trace("google", 12, 200, 12);

  core::PipelineOptions o = lossy_options(0.0, 0);
  o.faults = faultnet::FaultSpec::parse("corrupt=0.05;seed=7");
  core::MonitoringPipeline pipeline(t, o);
  pipeline.run(200);
  EXPECT_TRUE(pipeline.done());

  // Every corrupted frame was caught by the decoder's CRC check and
  // surfaced as a counted reject, not a crash or a poisoned sample.
  const double rejects =
      pipeline.metrics()
          .value("resmon_faultnet_crc_rejects_total")
          .value_or(0.0);
  const double injected =
      pipeline.metrics()
          .value("resmon_faultnet_injected_total", {{"fault", "corrupt"}})
          .value_or(0.0);
  EXPECT_GT(rejects, 0.0);
  EXPECT_EQ(rejects, injected);

  const Matrix f = pipeline.forecast_all(1);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      EXPECT_TRUE(std::isfinite(f(i, r)));
    }
  }
}

TEST(PipelineChaos, StallAndPartitionWindowsDegradeToSampleAndHold) {
  const trace::InMemoryTrace t =
      testing::make_golden_trace("google", 10, 150, 13);

  core::PipelineOptions o = lossy_options(0.0, 0);
  o.faults =
      faultnet::FaultSpec::parse("stall=60-80;partition=100-120;nodes=2,5");
  core::MonitoringPipeline pipeline(t, o);
  pipeline.run(150);
  EXPECT_TRUE(pipeline.done());
  const Matrix f = pipeline.forecast_all(1);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t r = 0; r < t.num_resources(); ++r) {
      EXPECT_TRUE(std::isfinite(f(i, r)));
    }
  }
}

TEST(PipelineFailures, DroppedInitialMeasurementsDelayClusteringSafely) {
  // With 90% loss the store may take a while to become complete; the
  // pipeline must keep collecting without throwing and eventually cluster.
  const trace::InMemoryTrace t =
      testing::make_golden_trace("google", 10, 200, 8);
  core::MonitoringPipeline pipeline(t, lossy_options(0.9, 0));
  pipeline.run(200);
  EXPECT_TRUE(pipeline.done());
}

}  // namespace
}  // namespace resmon
