// Aggregator-tier tests: shard partition math, the golden-trace
// bit-identity guarantee (a two-tier fleet — root + 2 aggregators — must
// produce byte-identical forecasts and RMSE to a single-tier controller
// fronting the same agents), shard-hello rejection and newest-wins
// semantics, wait_for_shards, the payload bound of a shard's stream (sized
// from the shard's node count), the upstream link's bounded backoff and
// reconnect-after-root-restart, and the compaction accounting.
//
// All fleets run over real loopback TCP in one process; staleness clocks
// are ManualClocks, so nothing here depends on wall time.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "agg/aggregator.hpp"
#include "collect/fleet_collector.hpp"
#include "core/pipeline.hpp"
#include "golden_fixture.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "scenario/socket_fleet.hpp"
#include "sim/evaluate.hpp"

namespace resmon::agg {
namespace {

TEST(Agg, ShardRangePartitionsEveryNodeExactlyOnce) {
  for (std::size_t nodes : {1u, 2u, 5u, 6u, 7u, 64u, 97u}) {
    for (std::size_t shards : {1u, 2u, 3u, 5u, 8u}) {
      if (shards > nodes) continue;
      std::vector<int> owners(nodes, 0);
      std::size_t expected_first = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const ShardRange r = shard_range(nodes, shards, s);
        EXPECT_EQ(r.first_node, expected_first)
            << nodes << "/" << shards << " shard " << s;
        EXPECT_GE(r.num_nodes, nodes / shards);
        EXPECT_LE(r.num_nodes, nodes / shards + 1);
        for (std::size_t n = r.first_node; n < r.first_node + r.num_nodes;
             ++n) {
          ++owners[n];
        }
        expected_first = r.first_node + r.num_nodes;
      }
      EXPECT_EQ(expected_first, nodes);
      for (std::size_t n = 0; n < nodes; ++n) {
        EXPECT_EQ(owners[n], 1) << nodes << "/" << shards << " node " << n;
      }
    }
  }
}

core::PipelineOptions pipeline_options() {
  core::PipelineOptions popts;
  popts.max_frequency = 0.3;
  popts.num_clusters = 2;
  popts.forecaster = forecast::ForecasterKind::kSampleHold;
  popts.schedule = {.initial_steps = 10, .retrain_interval = 50};
  popts.seed = 7;
  return popts;
}

void expect_bit_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.data().size(), b.data().size());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.data()[i]),
              std::bit_cast<std::uint64_t>(b.data()[i]))
        << "element " << i;
  }
}

TEST(Agg, TwoTierGoldenTraceIsBitIdenticalToSingleTier) {
  constexpr std::size_t kSlots = 40;
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 6, kSlots + 8, 21);

  // The same agents in front of a single-tier controller and of a root +
  // 2 aggregators, driven in lock-step.
  const auto policy =
      collect::make_policy_factory(collect::PolicyKind::kAdaptive, 0.3);
  scenario::SocketFleet one_tier(trace.num_nodes(), trace.num_resources(),
                                 {.policy = policy});
  scenario::SocketFleet two_tiers(trace.num_nodes(), trace.num_resources(),
                                  {.shards = 2, .policy = policy});
  core::MonitoringPipeline single(trace.num_nodes(), trace.num_resources(),
                                  pipeline_options());
  core::MonitoringPipeline two_tier(trace.num_nodes(), trace.num_resources(),
                                    pipeline_options());
  for (std::size_t t = 0; t < kSlots; ++t) {
    one_tier.observe(t, trace);
    single.step_external(one_tier.collect(t));
    two_tiers.observe(t, trace);
    two_tier.step_external(two_tiers.collect(t));
  }

  // The root consumed one summary per shard per slot, never a direct frame.
  EXPECT_EQ(two_tiers.root().summaries_received(), 2 * kSlots);

  // Byte-identical forecasts at several horizons, and bit-identical RMSE:
  // the summaries carried every measurement bit-exactly and in node order,
  // so the pipelines saw literally the same inputs.
  for (std::size_t h : {1u, 4u, 8u}) {
    expect_bit_identical(single.forecast_all(h), two_tier.forecast_all(h));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sim::rmse_at(single, trace, h)),
              std::bit_cast<std::uint64_t>(sim::rmse_at(two_tier, trace, h)))
        << "h=" << h;
  }
  EXPECT_TRUE(single.central_store().complete());
  EXPECT_TRUE(two_tier.central_store().complete());
}

TEST(Agg, ShardHelloToSingleTierRootIsTerminallyRejected) {
  net::ControllerOptions copts;
  copts.num_nodes = 4;
  copts.num_resources = 1;  // num_shards stays 0: single-tier
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copts);

  AggregatorOptions aopts;
  aopts.shard = 0;
  aopts.first_node = 0;
  aopts.num_nodes = 2;
  aopts.num_resources = 1;
  aopts.upstream.port = root.port();
  Aggregator agg(net::Socket::listen_tcp("127.0.0.1", 0), aopts);

  std::string error;
  try {
    net::connect_pumping(root, [&] { agg.connect_upstream(); });
  } catch (const net::SocketError& e) {
    error = e.what();
  }
  EXPECT_FALSE(agg.upstream_connected());
  EXPECT_NE(error.find("single-tier"), std::string::npos) << error;
  EXPECT_EQ(root.connected_shards(), 0u);
}

TEST(Agg, UpstreamConnectGivesUpAfterBoundedBackoffAttempts) {
  // Grab an ephemeral port, then close the listener so nothing serves it.
  std::uint16_t dead_port = 0;
  {
    net::Socket listener = net::Socket::listen_tcp("127.0.0.1", 0);
    dead_port = listener.local_port();
  }

  AggregatorOptions aopts;
  aopts.num_nodes = 1;
  aopts.num_resources = 1;
  aopts.upstream.port = dead_port;
  aopts.upstream.max_reconnect_attempts = 3;
  aopts.upstream.initial_backoff_ms = 1;
  aopts.upstream.max_backoff_ms = 4;
  Aggregator agg(net::Socket::listen_tcp("127.0.0.1", 0), aopts);

  std::string error;
  try {
    agg.connect_upstream();
  } catch (const net::SocketError& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("could not reach root at 127.0.0.1:" +
                       std::to_string(dead_port) + " after 3 attempts"),
            std::string::npos)
      << error;
  EXPECT_FALSE(agg.upstream_connected());
  EXPECT_EQ(agg.upstream_reconnects(), 0u);
}

TEST(Agg, AggregatorReconnectsAfterTheRootRestarts) {
  net::ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = 1;
  copts.num_shards = 1;
  auto root = std::make_unique<net::Controller>(
      net::Socket::listen_tcp("127.0.0.1", 0), copts);
  const std::uint16_t port = root->port();

  obs::MetricsRegistry registry;
  AggregatorOptions aopts;
  aopts.num_nodes = 1;
  aopts.num_resources = 1;
  aopts.upstream.port = port;
  aopts.upstream.initial_backoff_ms = 1;
  aopts.upstream.max_backoff_ms = 50;
  aopts.upstream.max_reconnect_attempts = 20;
  aopts.status_every_slots = 0;
  aopts.metrics = &registry;
  Aggregator agg(net::Socket::listen_tcp("127.0.0.1", 0), aopts);
  net::connect_pumping(*root, [&] { agg.connect_upstream(); });
  ASSERT_TRUE(agg.upstream_connected());

  net::AgentOptions agent_opts;
  agent_opts.upstream.port = agg.downstream().port();
  net::Agent agent(agent_opts, collect::make_policy_factory(
                                   collect::PolicyKind::kAlways, 1.0)());
  net::connect_pumping(agg.downstream(), [&] { agent.connect(); });

  // Kill the root (closes listener + shard connection), restart it on the
  // same port (SO_REUSEADDR), and keep forwarding: the aggregator must
  // notice the dead link, re-handshake, and deliver the later summaries to
  // the new root, which answers the shard hello while it is pumped.
  root.reset();
  root = std::make_unique<net::Controller>(
      net::Socket::listen_tcp("127.0.0.1", port), copts);
  net::connect_pumping(*root, [&] {
    const std::vector<double> x = {0.5};
    for (std::size_t t = 0; t < 10; ++t) {
      agent.observe(t, x);
      EXPECT_TRUE(agg.forward_slot(t, 10000)) << "slot " << t;
    }
  });
  EXPECT_GE(agg.upstream_reconnects(), 1u);
  EXPECT_EQ(registry.value("resmon_agg_upstream_reconnects_total",
                           {{"shard", "0"}}),
            static_cast<double>(agg.upstream_reconnects()));
  EXPECT_TRUE(agg.upstream_connected());
  EXPECT_EQ(root->connected_shards(), 1u);

  // Slot 9 was forwarded strictly after the re-handshake, so the new root
  // must be able to collect its summary.
  auto messages = root->collect_slot(9, 5000);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 1u);
  EXPECT_EQ((*messages)[0].step, 9u);
}

TEST(Agg, VersionSkewedShardHelloIsRejectedNamingBothVersions) {
  net::ControllerOptions copts;
  copts.num_nodes = 4;
  copts.num_resources = 1;
  copts.num_shards = 2;
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copts);

  // Hand-roll the handshake so the hello can claim protocol v2.
  net::Socket sock = net::Socket::connect_tcp("127.0.0.1", root.port(), 5000);
  ASSERT_TRUE(sock.write_all(
      net::wire::encode(net::wire::ShardHelloFrame{
          .shard = 0, .first_node = 0, .num_nodes = 2, .num_resources = 1,
          .protocol = 2}),
      5000));
  net::wire::FrameDecoder decoder;
  std::optional<net::wire::Frame> frame;
  for (int rounds = 0; rounds < 1000 && !frame; ++rounds) {
    root.pump_idle(10);
    if (!sock.wait_readable(10)) continue;
    std::uint8_t buf[256];
    std::size_t n = 0;
    if (sock.read_some(buf, n) == net::IoStatus::kOk) {
      ASSERT_TRUE(decoder.feed({buf, n}));
      frame = decoder.next();
    }
  }
  ASSERT_TRUE(frame.has_value());
  const auto& ack = std::get<net::wire::HelloAckFrame>(*frame);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.reason, static_cast<std::uint8_t>(
                            net::wire::HelloReject::kVersionMismatch));
  // The ack names the root's own protocol version, so the rejected peer
  // can log both sides of the skew.
  EXPECT_EQ(ack.speaker_version, net::wire::kProtocolVersion);
  EXPECT_EQ(root.connected_shards(), 0u);
}

/// A hand-rolled shard stream to a root: raw frames out, acks back.
struct RawShard {
  net::Socket sock;
  net::wire::FrameDecoder decoder;

  explicit RawShard(const net::Controller& root)
      : sock(net::Socket::connect_tcp("127.0.0.1", root.port(), 5000)) {}

  void send(const std::vector<std::uint8_t>& bytes) {
    ASSERT_TRUE(sock.write_all(bytes, 5000));
  }

  /// Pump `root` until the next hello ack arrives on this stream.
  net::wire::HelloAckFrame ack(net::Controller& root) {
    for (int rounds = 0; rounds < 1000; ++rounds) {
      if (std::optional<net::wire::Frame> frame = decoder.next()) {
        return std::get<net::wire::HelloAckFrame>(*frame);
      }
      root.pump_idle(10);
      if (!sock.wait_readable(10)) continue;
      std::uint8_t buf[256];
      std::size_t n = 0;
      if (sock.read_some(buf, n) == net::IoStatus::kOk) {
        EXPECT_TRUE(decoder.feed({buf, n}));
      }
    }
    ADD_FAILURE() << "no hello ack from the root";
    return {};
  }
};

std::vector<std::uint8_t> shard_hello(std::uint32_t shard,
                                      std::uint32_t first_node,
                                      std::uint32_t num_nodes) {
  return net::wire::encode(net::wire::ShardHelloFrame{.shard = shard,
                                                      .first_node = first_node,
                                                      .num_nodes = num_nodes,
                                                      .num_resources = 1});
}

TEST(Agg, NewerShardHelloDisplacesTheStreamThatHeldTheShard) {
  // Newest-wins holds for shards as for agents: a reconnecting aggregator
  // may beat the root to noticing its old link died.
  obs::MetricsRegistry registry;
  net::ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = 1;
  copts.num_shards = 1;
  copts.metrics = &registry;
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copts);

  RawShard first(root);
  first.send(shard_hello(0, 0, 2));
  ASSERT_TRUE(first.ack(root).accepted);
  EXPECT_EQ(root.connected_shards(), 1u);

  RawShard second(root);
  second.send(shard_hello(0, 0, 2));
  ASSERT_TRUE(second.ack(root).accepted);
  EXPECT_EQ(
      registry.value("resmon_net_stale_connections_dropped_total"), 1.0);
  EXPECT_EQ(root.connected_shards(), 1u);
  EXPECT_EQ(root.shards_seen(), 1u);

  // The displaced stream is closed; the new one's summaries are accepted.
  std::uint8_t buf[16];
  std::size_t n = 0;
  ASSERT_TRUE(first.sock.wait_readable(5000));
  EXPECT_EQ(first.sock.read_some(buf, n), net::IoStatus::kClosed);
  second.send(net::wire::encode(net::wire::SlotSummaryFrame{
      .shard = 0,
      .step = 0,
      .num_resources = 1,
      .measurements = {{.node = 1, .step = 0, .values = {0.5}}}}));
  const auto messages = root.collect_slot(0, 5000);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 1u);
  EXPECT_EQ((*messages)[0].node, 1u);
  EXPECT_EQ(root.summaries_received(), 1u);
  EXPECT_EQ(root.connections_rejected(), 0u);
}

TEST(Agg, SecondShardHelloOnOneStreamIsRejected) {
  net::ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = 1;
  copts.num_shards = 1;
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copts);

  RawShard shard(root);
  shard.send(shard_hello(0, 0, 2));
  shard.send(shard_hello(0, 0, 2));  // second hello, same stream
  ASSERT_TRUE(shard.ack(root).accepted);
  const net::wire::HelloAckFrame ack = shard.ack(root);
  EXPECT_FALSE(ack.accepted);
  EXPECT_EQ(ack.reason, static_cast<std::uint8_t>(
                            net::wire::HelloReject::kDuplicateNode));
  EXPECT_EQ(root.connections_rejected(), 1u);
  EXPECT_EQ(root.connected_shards(), 0u);
  EXPECT_EQ(root.shards_seen(), 1u);
}

/// A root fronting one shard of `nodes` nodes at d = 4, and a raw stream
/// whose shard hello for all of them was accepted.
struct BigShard {
  static constexpr std::uint32_t kDim = 4;
  obs::MetricsRegistry registry;
  net::Controller root;
  RawShard shard;

  explicit BigShard(std::uint32_t nodes)
      : root(net::Socket::listen_tcp("127.0.0.1", 0), options(nodes)),
        shard(root) {
    shard.send(net::wire::encode(net::wire::ShardHelloFrame{
        .shard = 0, .first_node = 0, .num_nodes = nodes,
        .num_resources = kDim}));
    EXPECT_TRUE(shard.ack(root).accepted);
  }

  net::ControllerOptions options(std::uint32_t nodes) {
    net::ControllerOptions copts;
    copts.num_nodes = nodes;
    copts.num_resources = kDim;
    copts.num_shards = 1;
    copts.metrics = &registry;
    return copts;
  }

  /// The stream's payload bound: a summary of every node it fronts.
  static std::size_t bound(std::uint32_t nodes) {
    return net::wire::slot_summary_payload_size(nodes, kDim);
  }
};

TEST(Agg, ShardSummaryAboveTheDefaultPayloadBoundIsCollected) {
  // 30,000 nodes at d = 4 need a 1.08 MB payload, above the decoder's
  // default 1 MiB bound; the accepted hello sizes the stream's bound.
  constexpr std::uint32_t kNodes = 30000;
  ASSERT_GT(BigShard::bound(kNodes), net::wire::kMaxPayloadSize);
  BigShard big(kNodes);
  net::wire::SlotSummaryFrame summary{
      .shard = 0, .step = 0, .num_resources = BigShard::kDim};
  summary.measurements.resize(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    summary.measurements[i] = {.node = i, .step = 0,
                               .values = {0.25, 0.5, 0.75, i * 1e-5}};
  }
  const std::vector<std::uint8_t> bytes = net::wire::encode(summary);
  ASSERT_EQ(bytes.size(), net::wire::kHeaderSize + BigShard::bound(kNodes));
  // The root reads while the stream writes: the summary outgrows the
  // socket buffers.
  bool wrote = false;
  std::thread writer([&] { wrote = big.shard.sock.write_all(bytes, 10000); });
  const auto messages = big.root.collect_slot(0, 10000);
  writer.join();
  EXPECT_TRUE(wrote);
  ASSERT_TRUE(messages.has_value());
  EXPECT_EQ(*messages, summary.measurements);
  EXPECT_EQ(big.root.connections_rejected(), 0u);
}

TEST(Agg, HeaderOneByteOverTheShardStreamsBoundIsRejected) {
  constexpr std::uint32_t kNodes = 30000;
  BigShard big(kNodes);
  // An empty summary's header, its length field raised to one byte over
  // the bound: rejected from the header alone, before any payload.
  std::vector<std::uint8_t> header = net::wire::encode(
      net::wire::SlotSummaryFrame{.num_resources = BigShard::kDim});
  header.resize(net::wire::kHeaderSize);
  const auto over = static_cast<std::uint32_t>(BigShard::bound(kNodes) + 1);
  std::memcpy(header.data() + 8, &over, sizeof over);
  big.shard.send(header);
  for (int rounds = 0; rounds < 500 && big.root.connections_rejected() == 0;
       ++rounds) {
    big.root.pump_idle(10);
  }
  EXPECT_EQ(big.root.connections_rejected(), 1u);
  EXPECT_EQ(big.registry.value("resmon_net_wire_errors_total",
                               {{"error", "oversized payload"}}),
            1.0);
}

TEST(Agg, WaitForShardsReturnsOnceEveryShardHasConnected) {
  net::ControllerOptions copts;
  copts.num_nodes = 4;
  copts.num_resources = 1;
  copts.num_shards = 2;
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copts);

  EXPECT_FALSE(root.wait_for_shards(1, 50));
  RawShard shard0(root);
  shard0.send(shard_hello(0, 0, 2));
  EXPECT_TRUE(root.wait_for_shards(1, 5000));
  EXPECT_FALSE(root.wait_for_shards(2, 50));
  RawShard shard1(root);
  shard1.send(shard_hello(1, 2, 2));
  EXPECT_TRUE(root.wait_for_shards(2, 5000));
  EXPECT_EQ(root.connected_shards(), 2u);
  EXPECT_EQ(root.nodes_seen(), 4u);
}

TEST(Agg, CompactionAccountingCountsFramesInPerFrameOut) {
  constexpr std::size_t kSlots = 12;
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 4, kSlots + 8, 3);

  net::ControllerOptions copts;
  copts.num_nodes = trace.num_nodes();
  copts.num_resources = trace.num_resources();
  copts.num_shards = 1;
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copts);

  obs::MetricsRegistry agg_registry;
  AggregatorOptions aopts;
  aopts.shard = 0;
  aopts.first_node = 0;
  aopts.num_nodes = trace.num_nodes();
  aopts.num_resources = trace.num_resources();
  aopts.upstream.port = root.port();
  aopts.status_every_slots = 4;
  aopts.metrics = &agg_registry;
  Aggregator agg(net::Socket::listen_tcp("127.0.0.1", 0), aopts);
  net::connect_pumping(root, [&] { agg.connect_upstream(); });

  const auto policy =
      collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0);
  std::vector<std::unique_ptr<net::Agent>> agents;
  std::vector<std::function<void()>> connects;
  for (std::uint32_t node = 0; node < trace.num_nodes(); ++node) {
    net::AgentOptions opts;
    opts.upstream.port = agg.downstream().port();
    opts.node = node;
    opts.num_resources = static_cast<std::uint32_t>(trace.num_resources());
    agents.push_back(std::make_unique<net::Agent>(opts, policy()));
    connects.emplace_back([agent = agents.back().get()] { agent->connect(); });
  }
  net::connect_pumping(agg.downstream(), connects);

  for (std::size_t t = 0; t < kSlots; ++t) {
    for (std::uint32_t node = 0; node < trace.num_nodes(); ++node) {
      agents[node]->observe(t, trace.measurement(node, t));
    }
    ASSERT_TRUE(agg.forward_slot(t, 10000));
    ASSERT_TRUE(root.collect_slot(t, 10000).has_value());
  }

  EXPECT_EQ(agg.forwarded_slots(), kSlots);
  // kAlways: every agent transmitted every slot, so each summary carried
  // exactly N measurements.
  EXPECT_EQ(agg.forwarded_measurements(), kSlots * trace.num_nodes());
  // status_every_slots = 4 over 12 slots -> 3 censuses.
  EXPECT_EQ(agg.status_frames(), 3u);
  EXPECT_EQ(root.summaries_received(), kSlots);
  EXPECT_EQ(root.summary_measurements(), kSlots * trace.num_nodes());
  // Compaction: (N hellos + N*slots measurements) agent frames in, against
  // (slots summaries + 3 censuses) upstream frames out — comfortably > 1
  // for N = 4, and exported as the gauge.
  const std::string text = agg_registry.render_text();
  EXPECT_NE(text.find("resmon_agg_forwarded_slots_total{shard=\"0\"} 12"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("resmon_agg_compaction_ratio"), std::string::npos);
}

}  // namespace
}  // namespace resmon::agg
