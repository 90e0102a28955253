// resmon::faultnet tests: the fault-spec grammar, the deterministic
// injection engine, and the FaultyLink fault stage's per-fault behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "faultnet/agent_hook.hpp"
#include "faultnet/fault_spec.hpp"
#include "faultnet/faulty_link.hpp"
#include "faultnet/injector.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "transport/channel.hpp"

namespace resmon::faultnet {
namespace {

transport::MeasurementMessage msg(std::size_t node, std::size_t step,
                                  double value = 0.5) {
  return {.node = node, .step = step, .values = {value}};
}

// ---- FaultSpec grammar -----------------------------------------------------

TEST(FaultSpec, ParsesEveryClause) {
  const FaultSpec spec = FaultSpec::parse(
      "drop=0.1;dup=0.2;corrupt=0.05;reorder=0.3;delay=0.25:4;"
      "stall=10-20;partition=30-40;nodes=1,3;seed=42");
  EXPECT_DOUBLE_EQ(spec.drop, 0.1);
  EXPECT_DOUBLE_EQ(spec.duplicate, 0.2);
  EXPECT_DOUBLE_EQ(spec.corrupt, 0.05);
  EXPECT_DOUBLE_EQ(spec.reorder, 0.3);
  EXPECT_DOUBLE_EQ(spec.delay, 0.25);
  EXPECT_EQ(spec.max_delay_slots, 4u);
  ASSERT_EQ(spec.stalls.size(), 1u);
  EXPECT_EQ(spec.stalls[0], (SlotWindow{10, 20}));
  ASSERT_EQ(spec.partitions.size(), 1u);
  EXPECT_EQ(spec.partitions[0], (SlotWindow{30, 40}));
  EXPECT_EQ(spec.nodes, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(spec.seed, 42u);
}

TEST(FaultSpec, EmptyStringIsTheEmptySpec) {
  EXPECT_TRUE(FaultSpec::parse("").empty());
  EXPECT_EQ(FaultSpec::parse(""), FaultSpec{});
}

TEST(FaultSpec, RoundTripsThroughToString) {
  const std::string text =
      "drop=0.1;dup=0.2;corrupt=0.05;reorder=0.3;delay=0.25:4;"
      "stall=10-20;stall=50-60;partition=30-40;nodes=1,3;seed=42";
  const FaultSpec spec = FaultSpec::parse(text);
  EXPECT_EQ(FaultSpec::parse(spec.to_string()), spec);
}

TEST(FaultSpec, RejectsMalformedClauses) {
  EXPECT_THROW(FaultSpec::parse("drop=1.5"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop=-0.1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop=abc"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("drop=0.1x"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("bogus=1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("=1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("stall=20-10"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("stall=10"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("delay=0.5"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("delay=0.5:0"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("nodes="), InvalidArgument);
  // NaN compares false against both bounds, and a signed count would wrap
  // to 2^64 - 1.
  EXPECT_THROW(FaultSpec::parse("drop=nan"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("delay=0.5:-1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("seed=-1"), InvalidArgument);
  EXPECT_THROW(FaultSpec::parse("nodes=1,-2"), InvalidArgument);
}

TEST(FaultSpec, NodeFilterDefaultsToEveryNode) {
  EXPECT_TRUE(FaultSpec::parse("drop=0.5").applies_to(17));
  const FaultSpec spec = FaultSpec::parse("drop=0.5;nodes=1,3");
  EXPECT_TRUE(spec.applies_to(1));
  EXPECT_FALSE(spec.applies_to(2));
}

TEST(FaultSpec, WindowsAreInclusive) {
  const FaultSpec spec = FaultSpec::parse("stall=10-20;partition=30-30");
  EXPECT_FALSE(spec.stalled_at(9));
  EXPECT_TRUE(spec.stalled_at(10));
  EXPECT_TRUE(spec.stalled_at(20));
  EXPECT_FALSE(spec.stalled_at(21));
  EXPECT_TRUE(spec.partitioned_at(30));
  EXPECT_FALSE(spec.partitioned_at(31));
}

// ---- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, DecisionsArePureFunctionsOfTheSpec) {
  const FaultSpec spec =
      FaultSpec::parse("drop=0.3;dup=0.2;corrupt=0.1;delay=0.2:3;seed=9");
  const FaultInjector a(spec);
  const FaultInjector b(spec);  // independent instance, same spec
  for (std::size_t node = 0; node < 8; ++node) {
    for (std::size_t step = 0; step < 200; ++step) {
      const FaultDecision da = a.decide(node, step);
      const FaultDecision db = b.decide(node, step);
      EXPECT_EQ(da.drop, db.drop);
      EXPECT_EQ(da.duplicate, db.duplicate);
      EXPECT_EQ(da.corrupt, db.corrupt);
      EXPECT_EQ(da.delay_slots, db.delay_slots);
    }
  }
}

TEST(FaultInjector, DifferentSeedsGiveDifferentRealizations) {
  const FaultInjector a(FaultSpec::parse("drop=0.5;seed=1"));
  const FaultInjector b(FaultSpec::parse("drop=0.5;seed=2"));
  std::size_t differing = 0;
  for (std::size_t step = 0; step < 500; ++step) {
    if (a.decide(0, step).drop != b.decide(0, step).drop) ++differing;
  }
  EXPECT_GT(differing, 100u);
}

TEST(FaultInjector, RatesMatchTheSpecApproximately) {
  const FaultInjector injector(FaultSpec::parse("drop=0.25;seed=5"));
  std::size_t drops = 0;
  for (std::size_t step = 0; step < 10000; ++step) {
    if (injector.decide(3, step).drop) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / 10000.0, 0.25, 0.02);
}

TEST(FaultInjector, FaultsAreMutuallyExclusivePerFrame) {
  const FaultInjector injector(
      FaultSpec::parse("drop=0.5;dup=0.5;corrupt=0.5;delay=0.5:2"));
  for (std::size_t step = 0; step < 500; ++step) {
    const FaultDecision d = injector.decide(0, step);
    const int fired = (d.drop ? 1 : 0) + (d.duplicate ? 1 : 0) +
                      (d.corrupt ? 1 : 0) + (d.delay_slots > 0 ? 1 : 0);
    EXPECT_LE(fired, 1) << "step " << step;
  }
}

TEST(FaultInjector, WindowsOverrideProbabilisticFaults) {
  const FaultInjector injector(
      FaultSpec::parse("drop=1.0;stall=5-6;partition=7-8"));
  EXPECT_TRUE(injector.decide(0, 4).drop);
  EXPECT_TRUE(injector.decide(0, 5).stalled);
  EXPECT_FALSE(injector.decide(0, 5).drop);
  EXPECT_TRUE(injector.decide(0, 7).partitioned);
}

TEST(FaultInjector, PickIsDeterministicAndInRange) {
  const FaultInjector injector(FaultSpec::parse("seed=3"));
  for (std::size_t step = 0; step < 100; ++step) {
    const std::size_t v = injector.pick(1, step, 0x42, 7);
    EXPECT_LT(v, 7u);
    EXPECT_EQ(v, injector.pick(1, step, 0x42, 7));
  }
}

TEST(FaultInjector, RegistersEveryFaultKindEagerly) {
  obs::MetricsRegistry registry;
  const FaultInjector injector(FaultSpec{}, &registry);
  const std::string text = registry.render_text();
  for (const char* kind : {"drop", "duplicate", "corrupt", "delay",
                           "reorder", "stall", "partition"}) {
    EXPECT_NE(text.find("fault=\"" + std::string(kind) + "\""),
              std::string::npos)
        << kind;
  }
}

// ---- FaultyLink ------------------------------------------------------------

TEST(FaultyLink, EmptySpecIsATransparentWrapper) {
  FaultyLink link(FaultSpec{});
  for (std::size_t t = 0; t < 50; ++t) {
    link.send(msg(0, t, 0.25 + static_cast<double>(t)));
    const auto batch = link.drain();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].step, t);
    EXPECT_DOUBLE_EQ(batch[0].values[0], 0.25 + static_cast<double>(t));
  }
  EXPECT_EQ(link.messages_dropped(), 0u);
}

TEST(FaultyLink, DropsApproximatelyTheConfiguredFraction) {
  FaultyLink link(FaultSpec::parse("drop=0.3;seed=11"));
  std::size_t delivered = 0;
  for (std::size_t t = 0; t < 5000; ++t) {
    link.send(msg(0, t));
    delivered += link.drain().size();
  }
  const double rate = 1.0 - static_cast<double>(delivered) / 5000.0;
  EXPECT_NEAR(rate, 0.3, 0.03);
  EXPECT_EQ(link.messages_dropped(), 5000u - delivered);
}

TEST(FaultyLink, DuplicatesAreDeliveredTwiceAndDedupedByTheStore) {
  FaultyLink link(FaultSpec::parse("dup=1.0"));
  transport::CentralStore store(1, 1);
  link.send(msg(0, 7, 0.9));
  const auto batch = link.drain();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].step, 7u);
  EXPECT_EQ(batch[1].step, 7u);
  for (const auto& m : batch) store.apply(m);
  EXPECT_DOUBLE_EQ(store.stored(0)[0], 0.9);
  EXPECT_EQ(store.last_update_step(0), 7u);
}

TEST(FaultyLink, CorruptFramesAreCrcRejectedAndLost) {
  obs::MetricsRegistry registry;
  FaultyLink link(FaultSpec::parse("corrupt=1.0"), &registry);
  for (std::size_t t = 0; t < 20; ++t) {
    link.send(msg(0, t));
    EXPECT_TRUE(link.drain().empty());
  }
  EXPECT_EQ(link.crc_rejects(), 20u);
  EXPECT_EQ(link.messages_dropped(), 20u);
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("resmon_faultnet_crc_rejects_total 20"),
            std::string::npos)
      << text;
}

TEST(FaultyLink, DelayedMessagesSurfaceWithinMaxSlots) {
  FaultyLink link(FaultSpec::parse("delay=1.0:3;seed=2"));
  constexpr std::size_t kSlots = 100;
  std::size_t delivered = 0;
  for (std::size_t t = 0; t < kSlots; ++t) {
    link.send(msg(0, t));
    delivered += link.drain().size();
  }
  // Flush the tail: drain a few extra slots.
  for (int extra = 0; extra < 3; ++extra) delivered += link.drain().size();
  EXPECT_EQ(delivered, kSlots);
  EXPECT_EQ(link.pending(), 0u);
  EXPECT_EQ(link.messages_dropped(), 0u);
}

TEST(FaultyLink, StalledTrafficFlushesAfterTheWindow) {
  FaultyLink link(FaultSpec::parse("stall=2-4"));
  std::vector<std::size_t> delivered_at(10, 0);
  std::size_t total = 0;
  for (std::size_t t = 0; t < 10; ++t) {
    link.send(msg(0, t));
    for (const auto& m : link.drain()) {
      delivered_at[m.step] = t;
      ++total;
    }
  }
  EXPECT_EQ(total, 10u);
  // In-window messages (2..4) are held until the first drain past the
  // window (slot 5); everything else is immediate.
  EXPECT_EQ(delivered_at[1], 1u);
  EXPECT_EQ(delivered_at[2], 5u);
  EXPECT_EQ(delivered_at[3], 5u);
  EXPECT_EQ(delivered_at[4], 5u);
  EXPECT_EQ(delivered_at[5], 5u);
}

TEST(FaultyLink, PartitionedTrafficIsLost) {
  FaultyLink link(FaultSpec::parse("partition=3-5"));
  std::size_t delivered = 0;
  for (std::size_t t = 0; t < 10; ++t) {
    link.send(msg(0, t));
    delivered += link.drain().size();
  }
  EXPECT_EQ(delivered, 7u);
  EXPECT_EQ(link.messages_dropped(), 3u);
}

TEST(FaultyLink, NodeFilterLeavesOtherNodesClean) {
  FaultyLink link(FaultSpec::parse("drop=1.0;nodes=1"));
  link.send(msg(0, 0));
  link.send(msg(1, 0));
  const auto batch = link.drain();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].node, 0u);
}

TEST(FaultyLink, ReorderShufflesABatchDeterministically) {
  const FaultSpec spec = FaultSpec::parse("reorder=1.0;seed=4");
  std::vector<std::size_t> order_a;
  std::vector<std::size_t> order_b;
  for (auto* order : {&order_a, &order_b}) {
    FaultyLink link(spec);
    for (std::size_t node = 0; node < 8; ++node) link.send(msg(node, 0));
    for (const auto& m : link.drain()) order->push_back(m.node);
  }
  EXPECT_EQ(order_a, order_b);  // same spec => same shuffle
  EXPECT_EQ(order_a.size(), 8u);
  EXPECT_TRUE(std::is_permutation(order_a.begin(), order_a.end(),
                                  std::vector<std::size_t>{
                                      0, 1, 2, 3, 4, 5, 6, 7}.begin()));
  EXPECT_NE(order_a, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// ---- agent/controller hook adapters ---------------------------------------

TEST(AgentHook, DropsAndSeversPerTheSpec) {
  const std::vector<std::uint8_t> frame =
      net::wire::encode(msg(2, 0));
  const auto drop_all =
      make_agent_fault_hook(FaultSpec::parse("drop=1.0"), 2);
  const net::FrameAction dropped = drop_all(0, frame);
  EXPECT_FALSE(dropped.sever);
  EXPECT_TRUE(dropped.frames.empty());

  const auto stall = make_agent_fault_hook(FaultSpec::parse("stall=0-3"), 2);
  EXPECT_TRUE(stall(1, frame).sever);
  const net::FrameAction after = stall(4, frame);
  EXPECT_FALSE(after.sever);
  ASSERT_EQ(after.frames.size(), 1u);
  EXPECT_EQ(after.frames[0], frame);
}

TEST(AgentHook, CorruptedFrameFailsItsCrcCheck) {
  const auto hook =
      make_agent_fault_hook(FaultSpec::parse("corrupt=1.0"), 0);
  const net::FrameAction action = hook(0, net::wire::encode(msg(0, 0)));
  ASSERT_EQ(action.frames.size(), 1u);
  net::wire::FrameDecoder decoder;
  decoder.feed(action.frames[0]);
  EXPECT_EQ(decoder.error(), net::wire::WireError::kCrcMismatch);
}

TEST(ControllerBlockHook, BlocksOnlyPartitionWindowNodes) {
  const auto hook = make_controller_block_hook(
      FaultSpec::parse("partition=10-20;nodes=3"));
  EXPECT_TRUE(hook(3, 15));
  EXPECT_FALSE(hook(3, 9));
  EXPECT_FALSE(hook(3, 21));
  EXPECT_FALSE(hook(2, 15));  // other nodes unaffected
}

}  // namespace
}  // namespace resmon::faultnet
