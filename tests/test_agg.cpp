// Aggregator-tier tests: shard partition math, the golden-trace
// bit-identity guarantee (a two-tier fleet — root + 2 aggregators — must
// produce byte-identical forecasts and RMSE to a single-tier controller
// fronting the same agents), shard-hello rejection semantics, the upstream
// link's bounded backoff and reconnect-after-root-restart, and the
// compaction accounting.
//
// All fleets run over real loopback TCP in one process; staleness clocks
// are ManualClocks, so nothing here depends on wall time.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
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
#include "obs/metrics.hpp"
#include "scenario/manual_clock.hpp"
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

/// Complete every agent's hello against `collector`: connects block in
/// helper threads while the main thread (which owns the collector) pumps.
/// The loop waits on collector-side state only — agent objects are touched
/// again strictly after the joins.
void connect_all(net::Controller& collector,
                 const std::vector<net::Agent*>& agents) {
  std::vector<std::thread> connectors;
  connectors.reserve(agents.size());
  for (net::Agent* agent : agents) {
    connectors.emplace_back([agent] { agent->connect(); });
  }
  EXPECT_TRUE(collector.wait_for_agents(agents.size(), 10000));
  for (std::thread& th : connectors) th.join();
}

/// Complete a shard hello: connect_upstream blocks until the root pumps
/// the ack, so it runs on a helper thread and the root pumps until the
/// thread's done flag (not the aggregator's own state, which would race).
void connect_upstream_pumped(Aggregator& agg, net::Controller& root) {
  std::atomic<bool> done{false};
  std::thread connector([&] {
    agg.connect_upstream();
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) root.pump_idle(10);
  connector.join();
  EXPECT_TRUE(agg.upstream_connected());
}

/// Drive a single-tier socket fleet over `trace` and return the pipeline.
std::unique_ptr<core::MonitoringPipeline> run_single_tier(
    const trace::InMemoryTrace& trace, std::size_t slots) {
  net::ControllerOptions copts;
  copts.num_nodes = trace.num_nodes();
  copts.num_resources = trace.num_resources();
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copts);

  const auto policy =
      collect::make_policy_factory(collect::PolicyKind::kAdaptive, 0.3);
  std::vector<std::unique_ptr<net::Agent>> agents;
  std::vector<net::Agent*> handles;
  for (std::uint32_t node = 0; node < trace.num_nodes(); ++node) {
    net::AgentOptions aopts;
    aopts.upstream.port = root.port();
    aopts.node = node;
    aopts.num_resources = static_cast<std::uint32_t>(trace.num_resources());
    agents.push_back(std::make_unique<net::Agent>(aopts, policy()));
    handles.push_back(agents.back().get());
  }
  connect_all(root, handles);

  auto pipeline = std::make_unique<core::MonitoringPipeline>(
      trace.num_nodes(), trace.num_resources(), pipeline_options());
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::uint32_t node = 0; node < trace.num_nodes(); ++node) {
      agents[node]->observe(t, trace.measurement(node, t));
    }
    auto messages = root.collect_slot(t, 10000);
    EXPECT_TRUE(messages.has_value()) << "single-tier slot " << t;
    pipeline->step_external(*messages);
  }
  return pipeline;
}

/// Drive the same fleet through a root + `num_shards` aggregators.
std::unique_ptr<core::MonitoringPipeline> run_two_tier(
    const trace::InMemoryTrace& trace, std::size_t slots,
    std::size_t num_shards, std::uint64_t* summaries_out = nullptr) {
  net::ControllerOptions copts;
  copts.num_nodes = trace.num_nodes();
  copts.num_resources = trace.num_resources();
  copts.num_shards = num_shards;
  net::Controller root(net::Socket::listen_tcp("127.0.0.1", 0), copts);

  std::vector<std::unique_ptr<Aggregator>> aggs;
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    const ShardRange range =
        shard_range(trace.num_nodes(), num_shards, shard);
    AggregatorOptions aopts;
    aopts.shard = shard;
    aopts.first_node = range.first_node;
    aopts.num_nodes = range.num_nodes;
    aopts.num_resources = trace.num_resources();
    aopts.upstream.port = root.port();
    aggs.push_back(std::make_unique<Aggregator>(
        net::Socket::listen_tcp("127.0.0.1", 0), aopts));
    connect_upstream_pumped(*aggs.back(), root);
  }
  EXPECT_TRUE(root.wait_for_shards(num_shards, 10000));

  const auto policy =
      collect::make_policy_factory(collect::PolicyKind::kAdaptive, 0.3);
  std::vector<std::unique_ptr<net::Agent>> agents;
  std::vector<std::vector<net::Agent*>> shard_handles(num_shards);
  for (std::uint32_t node = 0; node < trace.num_nodes(); ++node) {
    std::size_t shard = 0;
    while (true) {
      const ShardRange r = shard_range(trace.num_nodes(), num_shards, shard);
      if (node >= r.first_node && node < r.first_node + r.num_nodes) break;
      ++shard;
    }
    net::AgentOptions aopts;
    aopts.upstream.port = aggs[shard]->port();
    aopts.node = node;
    aopts.num_resources = static_cast<std::uint32_t>(trace.num_resources());
    agents.push_back(std::make_unique<net::Agent>(aopts, policy()));
    shard_handles[shard].push_back(agents.back().get());
  }
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    connect_all(aggs[shard]->downstream(), shard_handles[shard]);
  }

  auto pipeline = std::make_unique<core::MonitoringPipeline>(
      trace.num_nodes(), trace.num_resources(), pipeline_options());
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::uint32_t node = 0; node < trace.num_nodes(); ++node) {
      agents[node]->observe(t, trace.measurement(node, t));
    }
    for (auto& agg : aggs) {
      EXPECT_TRUE(agg->forward_slot(t, 10000)) << "shard slot " << t;
    }
    auto messages = root.collect_slot(t, 10000);
    EXPECT_TRUE(messages.has_value()) << "two-tier slot " << t;
    pipeline->step_external(*messages);
  }
  if (summaries_out != nullptr) *summaries_out = root.summaries_received();
  return pipeline;
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

  auto single = run_single_tier(trace, kSlots);
  std::uint64_t summaries = 0;
  auto two_tier = run_two_tier(trace, kSlots, 2, &summaries);

  // The root consumed one summary per shard per slot, never a direct frame.
  EXPECT_EQ(summaries, 2 * kSlots);

  // Byte-identical forecasts at several horizons, and bit-identical RMSE:
  // the summaries carried every measurement bit-exactly and in node order,
  // so the pipelines saw literally the same inputs.
  for (std::size_t h : {1u, 4u, 8u}) {
    expect_bit_identical(single->forecast_all(h), two_tier->forecast_all(h));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sim::rmse_at(*single, trace, h)),
              std::bit_cast<std::uint64_t>(sim::rmse_at(*two_tier, trace, h)))
        << "h=" << h;
  }
  EXPECT_TRUE(single->central_store().complete());
  EXPECT_TRUE(two_tier->central_store().complete());
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
  std::atomic<bool> done{false};
  std::thread connector([&] {
    try {
      agg.connect_upstream();
    } catch (const net::SocketError& e) {
      error = e.what();
    }
    done.store(true, std::memory_order_release);
  });
  // Pump the root until the rejection propagated (the done flag, not the
  // error string the connector thread is writing); the handshake needs
  // only a few round-trips.
  for (int rounds = 0;
       rounds < 1000 && !done.load(std::memory_order_acquire); ++rounds) {
    root.pump_idle(10);
  }
  connector.join();
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
  connect_upstream_pumped(agg, *root);

  net::AgentOptions agent_opts;
  agent_opts.upstream.port = agg.port();
  net::Agent agent(agent_opts, collect::make_policy_factory(
                                   collect::PolicyKind::kAlways, 1.0)());
  connect_all(agg.downstream(), {&agent});

  // Kill the root (closes listener + shard connection), restart it on the
  // same port (SO_REUSEADDR), and keep forwarding: the aggregator must
  // notice the dead link, re-handshake, and deliver the later summaries to
  // the new root, which a helper thread pumps until the shard hello lands.
  root.reset();
  root = std::make_unique<net::Controller>(
      net::Socket::listen_tcp("127.0.0.1", port), copts);
  {
    net::Controller& restarted = *root;
    std::thread pump([&restarted] { restarted.wait_for_shards(1, 10000); });
    const std::vector<double> x = {0.5};
    for (std::size_t t = 0; t < 10; ++t) {
      agent.observe(t, x);
      EXPECT_TRUE(agg.forward_slot(t, 10000)) << "slot " << t;
    }
    pump.join();
  }
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
  connect_upstream_pumped(agg, root);

  const auto policy =
      collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0);
  std::vector<std::unique_ptr<net::Agent>> agents;
  std::vector<net::Agent*> handles;
  for (std::uint32_t node = 0; node < trace.num_nodes(); ++node) {
    net::AgentOptions opts;
    opts.upstream.port = agg.port();
    opts.node = node;
    opts.num_resources = static_cast<std::uint32_t>(trace.num_resources());
    agents.push_back(std::make_unique<net::Agent>(opts, policy()));
    handles.push_back(agents.back().get());
  }
  connect_all(agg.downstream(), handles);

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
