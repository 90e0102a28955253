#include "collect/adaptive_transmitter.hpp"
#include "collect/fleet_collector.hpp"
#include "collect/measurement_source.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/synthetic.hpp"

namespace resmon::collect {
namespace {

std::vector<double> scalar(double v) { return {v}; }

TEST(AdaptiveTransmitter, ValidatesOptions) {
  EXPECT_THROW(AdaptiveTransmitter({.max_frequency = 0.0}), InvalidArgument);
  EXPECT_THROW(AdaptiveTransmitter({.max_frequency = 1.5}), InvalidArgument);
  EXPECT_THROW(AdaptiveTransmitter({.v0 = 0.0}), InvalidArgument);
  EXPECT_THROW(AdaptiveTransmitter({.gamma = 1.0}), InvalidArgument);
}

TEST(AdaptiveTransmitter, AlwaysTransmitsFirstMeasurement) {
  AdaptiveTransmitter tx({.max_frequency = 0.1});
  EXPECT_TRUE(tx.decide(0, scalar(0.5)));
  EXPECT_EQ(tx.transmissions(), 1u);
}

TEST(AdaptiveTransmitter, QueueFollowsEquation9) {
  AdaptiveTransmitter tx({.max_frequency = 0.3});
  tx.decide(0, scalar(0.5));  // transmits: Q += 1 - 0.3
  EXPECT_NEAR(tx.queue_length(), 0.7, 1e-12);
  // Large positive queue suppresses transmission: Q -= B.
  tx.decide(1, scalar(0.5));
  EXPECT_NEAR(tx.queue_length(), 0.4, 1e-12);
}

TEST(AdaptiveTransmitter, EmptyMeasurementThrows) {
  AdaptiveTransmitter tx({});
  EXPECT_THROW(tx.decide(0, std::vector<double>{}), InvalidArgument);
}

TEST(AdaptiveTransmitter, PenaltyIsMeanSquaredDeviation) {
  AdaptiveTransmitter tx({.max_frequency = 0.3});
  tx.decide(0, std::vector<double>{0.0, 0.0});  // first: transmit
  tx.decide(1, std::vector<double>{0.3, 0.4});
  // F = (0.09 + 0.16) / 2.
  EXPECT_NEAR(tx.last_penalty(), 0.125, 1e-12);
}

TEST(AdaptiveTransmitter, LongRunFrequencyMeetsConstraint) {
  // Random-walk measurements; the drift-plus-penalty rule must keep the
  // long-run transmission frequency at (or below) B.
  for (const double b : {0.1, 0.3, 0.5}) {
    AdaptiveTransmitter tx({.max_frequency = b});
    Rng rng(17);
    double x = 0.5;
    const std::size_t steps = 5000;
    for (std::size_t t = 0; t < steps; ++t) {
      x = std::clamp(x + rng.normal(0.0, 0.05), 0.0, 1.0);
      tx.decide(t, scalar(x));
    }
    EXPECT_NEAR(tx.actual_frequency(), b, 0.03) << "B = " << b;
  }
}

TEST(AdaptiveTransmitter, LargeV0TransmitsOnLargeChanges) {
  // With a sizeable V0, a big measurement jump must trigger transmission
  // even if the queue is positive.
  AdaptiveTransmitter tx({.max_frequency = 0.3, .v0 = 10.0});
  tx.decide(0, scalar(0.1));  // initial transmit, Q = 0.7
  EXPECT_TRUE(tx.decide(1, scalar(0.9)));  // V*F = ~2 > Q
}

TEST(AdaptiveTransmitter, ConstantSignalWithClampStaysSilent) {
  AdaptiveTransmitter tx(
      {.max_frequency = 0.3, .v0 = 1.0, .clamp_queue = true});
  tx.decide(0, scalar(0.4));
  std::size_t transmissions_after_first = 0;
  for (std::size_t t = 1; t < 200; ++t) {
    if (tx.decide(t, scalar(0.4))) ++transmissions_after_first;
  }
  EXPECT_EQ(transmissions_after_first, 0u);
  EXPECT_GE(tx.queue_length(), 0.0);
}

TEST(AdaptiveTransmitter, UnclampedQueueMeansEqualityConstraint) {
  // Per the paper, without clamping the constraint is met with equality
  // even when the signal is flat (transmissions still happen).
  AdaptiveTransmitter tx({.max_frequency = 0.25, .clamp_queue = false});
  for (std::size_t t = 0; t < 2000; ++t) {
    tx.decide(t, scalar(0.4));
  }
  EXPECT_NEAR(tx.actual_frequency(), 0.25, 0.02);
}

TEST(UniformTransmitter, TransmitsAtFixedInterval) {
  UniformTransmitter tx(0.25);
  std::vector<bool> pattern;
  for (std::size_t t = 0; t < 8; ++t) {
    pattern.push_back(tx.decide(t, scalar(0.0)));
  }
  // credit starts at 1.0: transmits at t=0, then whenever the accumulated
  // credit reaches a full message again (t=3, t=7, ... for B=0.25).
  EXPECT_TRUE(pattern[0]);
  EXPECT_FALSE(pattern[1]);
  EXPECT_FALSE(pattern[2]);
  EXPECT_TRUE(pattern[3]);
  EXPECT_FALSE(pattern[4]);
  EXPECT_FALSE(pattern[5]);
  EXPECT_FALSE(pattern[6]);
  EXPECT_TRUE(pattern[7]);
}

TEST(UniformTransmitter, FrequencyMatchesB) {
  for (const double b : {0.05, 0.3, 0.7, 1.0}) {
    UniformTransmitter tx(b);
    for (std::size_t t = 0; t < 1000; ++t) tx.decide(t, scalar(0.0));
    EXPECT_NEAR(tx.actual_frequency(), b, 0.01) << "B = " << b;
  }
}

TEST(UniformTransmitter, RejectsInvalidB) {
  EXPECT_THROW(UniformTransmitter(0.0), InvalidArgument);
  EXPECT_THROW(UniformTransmitter(1.1), InvalidArgument);
}

// ---- FleetCollector -------------------------------------------------

TEST(FleetCollector, StoreCompleteAfterFirstStep) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 10;
  p.num_steps = 50;
  const trace::InMemoryTrace t = trace::generate(p, 3);
  for (const PolicyKind kind :
       {PolicyKind::kAdaptive, PolicyKind::kUniform, PolicyKind::kAlways}) {
    FleetCollector fleet(t, make_policy_factory(kind, 0.3));
    transport::CentralStore store(t.num_nodes(), t.num_resources());
    for (const auto& m : fleet.step(0)) store.apply(m);
    EXPECT_TRUE(store.complete());
  }
}

TEST(FleetCollector, StepsMustBeConsecutive) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 4;
  p.num_steps = 10;
  const trace::InMemoryTrace t = trace::generate(p, 3);
  FleetCollector fleet(t, make_policy_factory(PolicyKind::kAlways, 1.0));
  fleet.step(0);
  EXPECT_THROW(fleet.step(2), InvalidArgument);
}

TEST(FleetCollector, AlwaysPolicyKeepsStoreFresh) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 6;
  p.num_steps = 30;
  const trace::InMemoryTrace t = trace::generate(p, 5);
  FleetCollector fleet(t, make_policy_factory(PolicyKind::kAlways, 1.0));
  transport::CentralStore store(t.num_nodes(), t.num_resources());
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    for (const auto& m : fleet.step(step)) store.apply(m);
    for (std::size_t i = 0; i < t.num_nodes(); ++i) {
      EXPECT_EQ(store.staleness(i, step), 0u);
      EXPECT_DOUBLE_EQ(store.stored(i)[0], t.value(i, step, 0));
    }
  }
}

TEST(FleetCollector, BetaIndicatorsMatchStoreUpdates) {
  trace::SyntheticProfile p = trace::bitbrains_profile();
  p.num_nodes = 8;
  p.num_steps = 60;
  const trace::InMemoryTrace t = trace::generate(p, 6);
  // A slot is exactly the beta_t = 1 nodes, in node order, each carrying
  // its slot-t measurement.
  FleetCollector fleet(t, make_policy_factory(PolicyKind::kAdaptive, 0.3));
  transport::CentralStore store(t.num_nodes(), t.num_resources());
  const auto by_node = &transport::MeasurementMessage::node;
  std::uint64_t delivered = 0;
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    const auto slot = fleet.step(step);
    EXPECT_TRUE(std::ranges::is_sorted(slot, {}, by_node));
    for (const transport::MeasurementMessage& m : slot) {
      EXPECT_EQ(m.step, step);
      store.apply(m);
      EXPECT_EQ(store.last_update_step(m.node), step);
      EXPECT_DOUBLE_EQ(store.stored(m.node)[0], t.value(m.node, step, 0));
    }
    delivered += slot.size();
  }
  std::uint64_t transmissions = 0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    transmissions += fleet.policy(i).transmissions();
  }
  EXPECT_EQ(delivered, transmissions);
}

TEST(FleetCollector, AccountsForTraffic) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 5;
  p.num_steps = 40;
  const trace::InMemoryTrace t = trace::generate(p, 7);
  obs::MetricsRegistry registry;
  FleetCollector fleet(t, make_policy_factory(PolicyKind::kUniform, 0.5),
                       &registry);
  for (std::size_t step = 0; step < t.num_steps(); ++step) fleet.step(step);
  std::uint64_t transmissions = 0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    transmissions += fleet.policy(i).transmissions();
  }
  EXPECT_EQ(fleet.messages_sent(), transmissions);
  // The accessors read what the registry exposes.
  EXPECT_EQ(registry.value("resmon_collect_sends_total"),
            static_cast<double>(fleet.messages_sent()));
  EXPECT_EQ(registry.value("resmon_collect_link_bytes_sent"),
            static_cast<double>(fleet.bytes_sent()));
  // Every message is one wire frame; wire_size() is the encoder's exact
  // byte count (see transport/wire_format.hpp).
  EXPECT_EQ(fleet.bytes_sent(),
            transmissions *
                net::wire::measurement_frame_size(t.num_resources()));
}

// ---- MeasurementSource ----------------------------------------------

TEST(MeasurementSource, TraceSourceViewsOneNode) {
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 3;
  p.num_steps = 8;
  const trace::InMemoryTrace t = trace::generate(p, 3);
  TraceSource source(t, 1);
  for (std::size_t step = 0; step < t.num_steps(); ++step) {
    EXPECT_EQ(source.measurement(step), t.measurement(1, step));
  }
  EXPECT_THROW(source.measurement(t.num_steps()), Error);
  EXPECT_THROW(TraceSource(t, 3), Error);
}

TEST(FleetCollector, AdaptiveFactoryTakesThePaperDefaultsFromAdaptiveOptions) {
  // make_policy_factory's adaptive policy must be AdaptiveOptions' paper
  // configuration at budget B, decision for decision.
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 3;
  p.num_steps = 300;
  const trace::InMemoryTrace t = trace::generate(p, 17);
  for (const double b : {0.1, 0.3}) {
    for (std::size_t node = 0; node < t.num_nodes(); ++node) {
      const std::unique_ptr<TransmitPolicy> factory =
          make_policy_factory(PolicyKind::kAdaptive, b)();
      AdaptiveTransmitter direct(AdaptiveOptions{.max_frequency = b});
      std::size_t sends = 0;
      for (std::size_t step = 0; step < t.num_steps(); ++step) {
        const std::vector<double> x = t.measurement(node, step);
        const bool beta = direct.decide(step, x);
        ASSERT_EQ(factory->decide(step, x), beta)
            << "B = " << b << ", node " << node << ", step " << step;
        sends += beta ? 1 : 0;
      }
      // Both silent and transmitting slots were compared.
      EXPECT_GT(sends, 0u);
      EXPECT_LT(sends, t.num_steps());
    }
  }
}

TEST(FleetCollector, RejectsAnEmptyTrace) {
  // A Trace implementation may report zero nodes; a fleet of none has no
  // average frequency to report.
  struct NoNodes final : trace::Trace {
    std::size_t num_nodes() const override { return 0; }
    std::size_t num_steps() const override { return 4; }
    std::size_t num_resources() const override { return 1; }
    double value(std::size_t, std::size_t, std::size_t) const override {
      return 0.0;
    }
  };
  const NoNodes none;
  EXPECT_THROW(
      FleetCollector(none, make_policy_factory(PolicyKind::kAlways, 1.0)),
      InvalidArgument);
}

// Property sweep: fleet-average adaptive frequency tracks B on real-ish
// workloads (the Fig. 3 property).
class FleetFrequencyTest : public ::testing::TestWithParam<double> {};

TEST_P(FleetFrequencyTest, FleetFrequencyTracksBudget) {
  const double b = GetParam();
  trace::SyntheticProfile p = trace::alibaba_profile();
  p.num_nodes = 20;
  p.num_steps = 2000;
  const trace::InMemoryTrace t = trace::generate(p, 11);
  FleetCollector fleet(t, make_policy_factory(PolicyKind::kAdaptive, b));
  for (std::size_t step = 0; step < t.num_steps(); ++step) fleet.step(step);
  EXPECT_NEAR(fleet.average_actual_frequency(), b, 0.05) << "B = " << b;
}

INSTANTIATE_TEST_SUITE_P(Budgets, FleetFrequencyTest,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5));

}  // namespace
}  // namespace resmon::collect
