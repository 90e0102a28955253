#include "transport/channel.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "faultnet/faulty_link.hpp"
#include "net/wire.hpp"

namespace resmon::transport {
namespace {

TEST(MeasurementMessage, WireSizeScalesWithDimension) {
  MeasurementMessage one{.node = 0, .step = 0, .values = {0.0}};
  MeasurementMessage four{.node = 0, .step = 0,
                          .values = {0.0, 0.0, 0.0, 0.0}};
  EXPECT_EQ(one.wire_size(), 40u);
  EXPECT_EQ(four.wire_size(), 64u);
}

TEST(MeasurementMessage, WireSizeMatchesTheRealEncoder) {
  // One source of truth for bandwidth accounting: wire_size() must equal
  // the byte count the wire encoder actually produces.
  for (std::size_t d : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    MeasurementMessage m{.node = 3, .step = 42,
                         .values = std::vector<double>(d, 0.25)};
    EXPECT_EQ(net::wire::encode(m).size(), m.wire_size()) << "d = " << d;
  }
}

/// d distinct values, so a copy that drops or reorders one is seen.
MeasurementValues counting(std::size_t d) {
  MeasurementValues v;
  for (std::size_t i = 0; i < d; ++i) v.push_back(0.5 + static_cast<double>(i));
  return v;
}

TEST(MeasurementValues, CopyMoveSelfAssignAndEqualityInlineAndOnTheHeap) {
  for (const std::size_t d : {0, 1, 4, 5, 64}) {
    SCOPED_TRACE("d = " + std::to_string(d));
    const bool inline_values = d <= MeasurementValues::kInline;
    const MeasurementValues original = counting(d);
    ASSERT_EQ(original.size(), d);
    EXPECT_EQ(original.capacity() == MeasurementValues::kInline,
              inline_values);
    for (std::size_t i = 0; i < d; ++i) {
      EXPECT_EQ(original[i], 0.5 + static_cast<double>(i));
    }

    MeasurementValues copy = original;
    EXPECT_EQ(copy, original);
    EXPECT_NE(copy.data(), original.data());
    const MeasurementValues& same = copy;
    copy = same;  // self-assignment keeps the values
    EXPECT_EQ(copy, original);

    // A move takes heap values without copying them and leaves the source
    // empty; inline values are copied across.
    const double* block = copy.data();
    MeasurementValues moved = std::move(copy);
    EXPECT_EQ(moved, original);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved.data() == block, !inline_values);
    MeasurementValues& self = moved;
    moved = std::move(self);  // self-move keeps the values
    EXPECT_EQ(moved, original);

    MeasurementValues assigned = counting(3);
    assigned = original;
    EXPECT_EQ(assigned, original);
    MeasurementValues move_assigned = counting(7);
    move_assigned = std::move(assigned);
    EXPECT_EQ(move_assigned, original);
    EXPECT_TRUE(assigned.empty());  // NOLINT(bugprone-use-after-move)

    // Equality is by value and length, like std::vector's.
    if (d > 0) {
      MeasurementValues other = original;
      other[d - 1] += 1.0;
      EXPECT_NE(other, original);
      other.resize(d - 1);
      EXPECT_NE(other, original);
    }
    EXPECT_EQ(original, MeasurementValues(std::vector<double>(
                            original.begin(), original.end())));

    // A wire round trip decodes into the same storage class.
    const MeasurementMessage sent{.node = 9, .step = 11, .values = original};
    net::wire::FrameDecoder decoder;
    ASSERT_TRUE(decoder.feed(net::wire::encode(sent)));
    std::optional<net::wire::Frame> frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    const auto& got = std::get<MeasurementMessage>(*frame);
    EXPECT_EQ(got, sent);
    EXPECT_EQ(got.values.capacity() == MeasurementValues::kInline,
              inline_values);
  }
}

TEST(MeasurementValues, ResizeZeroFillsAndPushBackGrowsOntoTheHeap) {
  MeasurementValues v = {0.25, 0.5};
  v.resize(4);
  EXPECT_EQ(v, (MeasurementValues{0.25, 0.5, 0.0, 0.0}));
  EXPECT_EQ(v.capacity(), MeasurementValues::kInline);
  v.push_back(1.0);
  EXPECT_GT(v.capacity(), MeasurementValues::kInline);
  EXPECT_EQ(v, (MeasurementValues{0.25, 0.5, 0.0, 0.0, 1.0}));
  v.assign(std::vector<double>{2.0});
  EXPECT_EQ(v, MeasurementValues{2.0});
  EXPECT_GT(v.capacity(), MeasurementValues::kInline);  // block kept
}

TEST(CentralStore, StartsEmpty) {
  CentralStore store(3, 1);
  EXPECT_FALSE(store.has(0));
  EXPECT_FALSE(store.complete());
  EXPECT_THROW(store.stored(0), InvalidState);
  EXPECT_THROW(store.last_update_step(0), InvalidState);
}

TEST(CentralStore, ApplyStoresValueAndStep) {
  CentralStore store(2, 2);
  store.apply({.node = 1, .step = 5, .values = {0.3, 0.4}});
  EXPECT_TRUE(store.has(1));
  EXPECT_FALSE(store.has(0));
  EXPECT_EQ(store.last_update_step(1), 5u);
  EXPECT_DOUBLE_EQ(store.stored(1)[1], 0.4);
}

TEST(CentralStore, StalenessCountsSinceLastUpdate) {
  CentralStore store(1, 1);
  store.apply({.node = 0, .step = 3, .values = {0.1}});
  EXPECT_EQ(store.staleness(0, 3), 0u);
  EXPECT_EQ(store.staleness(0, 7), 4u);
}

TEST(CentralStore, IgnoresStaleOutOfOrderMessages) {
  CentralStore store(1, 1);
  store.apply({.node = 0, .step = 5, .values = {0.5}});
  store.apply({.node = 0, .step = 3, .values = {0.3}});  // older, ignored
  EXPECT_DOUBLE_EQ(store.stored(0)[0], 0.5);
  EXPECT_EQ(store.last_update_step(0), 5u);
}

TEST(CentralStore, EqualStepDuplicateKeepsTheFirstCopy) {
  // A retransmitted (or network-duplicated) message for the already-stored
  // step must be a no-op: first write wins, nothing regresses.
  CentralStore store(2, 1);
  store.apply({.node = 0, .step = 4, .values = {0.4}});
  store.apply({.node = 0, .step = 4, .values = {0.9}});  // duplicate step
  EXPECT_DOUBLE_EQ(store.stored(0)[0], 0.4);
  EXPECT_EQ(store.last_update_step(0), 4u);
  // A genuinely fresher step still replaces it.
  store.apply({.node = 0, .step = 5, .values = {0.6}});
  EXPECT_DOUBLE_EQ(store.stored(0)[0], 0.6);
}

TEST(CentralStore, OutOfRangeNodeIsATypedErrorAndLeavesStateIntact) {
  CentralStore store(2, 1);
  store.apply({.node = 1, .step = 7, .values = {0.7}});
  EXPECT_THROW(store.apply({.node = 2, .step = 8, .values = {0.8}}),
               InvalidArgument);
  EXPECT_THROW(
      store.apply({.node = static_cast<std::size_t>(-1),
                   .step = 8,
                   .values = {0.8}}),
      InvalidArgument);
  // The rejected messages left the store untouched.
  EXPECT_FALSE(store.has(0));
  EXPECT_DOUBLE_EQ(store.stored(1)[0], 0.7);
  EXPECT_EQ(store.last_update_step(1), 7u);
}

TEST(CentralStore, StalenessAfterOutOfOrderDeliveryTracksFreshestApplied) {
  // Deliveries arrive out of order: 6 then 2. The stale message must not
  // reset staleness — age is measured against step 6, not step 2.
  CentralStore store(1, 1);
  store.apply({.node = 0, .step = 6, .values = {0.6}});
  store.apply({.node = 0, .step = 2, .values = {0.2}});
  EXPECT_EQ(store.last_update_step(0), 6u);
  EXPECT_EQ(store.staleness(0, 6), 0u);
  EXPECT_EQ(store.staleness(0, 10), 4u);
  // Querying staleness before the stored step is a contract violation.
  EXPECT_THROW(store.staleness(0, 5), InvalidArgument);
}

TEST(CentralStore, CompleteOnceAllNodesReport) {
  CentralStore store(2, 1);
  store.apply({.node = 0, .step = 0, .values = {0.1}});
  EXPECT_FALSE(store.complete());
  store.apply({.node = 1, .step = 0, .values = {0.2}});
  EXPECT_TRUE(store.complete());
}

TEST(CentralStore, ValuesRequireEveryNodeAndMatchStored) {
  // A node that has not reported must never read as a 0.0 measurement.
  CentralStore store(2, 2);
  store.apply({.node = 1, .step = 0, .values = {0.3, 0.4}});
  store.apply({.node = 1, .step = 1, .values = {0.5, 0.6}});
  EXPECT_FALSE(store.complete());
  EXPECT_THROW(store.values(), InvalidState);
  store.apply({.node = 0, .step = 1, .values = {0.1, 0.2}});
  ASSERT_TRUE(store.complete());
  const std::vector<double> z(store.values().begin(), store.values().end());
  EXPECT_EQ(z, (std::vector<double>{0.1, 0.2, 0.5, 0.6}));
}

TEST(CentralStore, OutOfOrderDeliveryUnderDelayIgnoresStaleMessages) {
  // End-to-end lossy-link path: a delaying link reorders messages, and
  // the store must keep the freshest measurement while staleness() tracks
  // the age of what was actually applied.
  faultnet::FaultyLink ch(faultnet::FaultSpec::parse("delay=1.0:3;seed=11"));
  CentralStore store(1, 1);
  long long freshest = -1;  // newest step applied so far
  bool saw_stale_arrival = false;
  const std::size_t sends = 40;
  for (std::size_t slot = 0; slot < sends + 4; ++slot) {
    if (slot < sends) {
      ch.send({.node = 0,
               .step = slot,
               .values = {static_cast<double>(slot) * 0.01}});
    }
    for (const MeasurementMessage& msg : ch.drain()) {
      if (static_cast<long long>(msg.step) < freshest) {
        saw_stale_arrival = true;
      }
      freshest = std::max(freshest, static_cast<long long>(msg.step));
      store.apply(msg);
      // A stale message must not regress the stored value or its step.
      EXPECT_EQ(store.last_update_step(0),
                static_cast<std::size_t>(freshest));
      EXPECT_DOUBLE_EQ(store.stored(0)[0],
                       static_cast<double>(freshest) * 0.01);
    }
    if (store.has(0)) {
      // Staleness reflects the delayed arrival: the age of the freshest
      // applied measurement, not of the latest sent one.
      EXPECT_EQ(store.staleness(0, slot),
                slot - static_cast<std::size_t>(freshest));
    }
  }
  // The chosen seed produces at least one reordered arrival, so the
  // stale-ignore path above actually executed.
  EXPECT_TRUE(saw_stale_arrival);
  EXPECT_EQ(store.last_update_step(0), sends - 1);
  EXPECT_EQ(ch.pending(), 0u);
}

TEST(CentralStore, ValidatesIndicesAndDimensions) {
  CentralStore store(2, 1);
  EXPECT_THROW(store.apply({.node = 9, .step = 0, .values = {0.1}}),
               InvalidArgument);
  EXPECT_THROW(store.apply({.node = 0, .step = 0, .values = {0.1, 0.2}}),
               InvalidArgument);
  EXPECT_THROW(CentralStore(0, 1), InvalidArgument);
}

}  // namespace
}  // namespace resmon::transport
