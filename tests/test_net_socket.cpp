// Socket runtime tests: the real TCP agent/controller path against
// 127.0.0.1, checked bit-for-bit against the in-process path,
// plus the handshake-rejection and reconnect-backoff behavior and the
// agent's send counters.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "collect/fleet_collector.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "reference_inbox.hpp"
#include "trace/synthetic.hpp"
#include "transport/channel.hpp"

namespace resmon::net {
namespace {

trace::InMemoryTrace make_trace(std::size_t nodes, std::size_t steps,
                                std::uint64_t seed) {
  trace::SyntheticProfile profile = trace::profile_by_name("alibaba");
  profile.num_nodes = nodes;
  profile.num_steps = steps;
  return trace::generate(profile, seed);
}

/// Everything the central store knows after a slot, exact doubles included.
struct StoreSnapshot {
  std::vector<std::vector<double>> values;
  std::vector<long long> steps;

  static StoreSnapshot of(const transport::CentralStore& store) {
    StoreSnapshot snap;
    for (std::size_t node = 0; node < store.num_nodes(); ++node) {
      if (store.has(node)) {
        const std::span<const double> z = store.stored(node);
        snap.values.emplace_back(z.begin(), z.end());
        snap.steps.push_back(
            static_cast<long long>(store.last_update_step(node)));
      } else {
        snap.values.emplace_back();
        snap.steps.push_back(-1);
      }
    }
    return snap;
  }

  bool operator==(const StoreSnapshot&) const = default;
};

TEST(NetSocket, TcpRunIsBitIdenticalToTheInProcessPath) {
  constexpr std::size_t kNodes = 6;
  constexpr std::size_t kSlots = 80;
  const trace::InMemoryTrace trace = make_trace(kNodes, kSlots, 7);
  const auto factory =
      collect::make_policy_factory(collect::PolicyKind::kAdaptive, 0.3);

  // Reference: the in-process collector's slots, no sockets or codec.
  collect::FleetCollector reference(trace, factory);
  transport::CentralStore reference_store(kNodes, trace.num_resources());
  std::vector<StoreSnapshot> expected;
  for (std::size_t t = 0; t < kSlots; ++t) {
    for (const auto& m : reference.step(t)) reference_store.apply(m);
    expected.push_back(StoreSnapshot::of(reference_store));
  }

  // TCP: one controller, one OS thread per agent, same policies.
  ControllerOptions copts;
  copts.num_nodes = kNodes;
  copts.num_resources = trace.num_resources();
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  std::vector<std::thread> agents;
  for (std::size_t node = 0; node < kNodes; ++node) {
    agents.emplace_back([&, node] {
      AgentOptions aopts;
      aopts.upstream.port = controller.port();
      aopts.node = static_cast<std::uint32_t>(node);
      aopts.num_resources = static_cast<std::uint32_t>(trace.num_resources());
      Agent agent(aopts, factory());
      agent.connect();
      for (std::size_t t = 0; t < kSlots; ++t) {
        agent.observe(t, trace.measurement(node, t));
      }
    });
  }

  ASSERT_TRUE(controller.wait_for_agents(kNodes, 10000));
  transport::CentralStore store(kNodes, trace.num_resources());
  for (std::size_t t = 0; t < kSlots; ++t) {
    auto messages = controller.collect_slot(t, 10000);
    ASSERT_TRUE(messages.has_value()) << "slot " << t << " timed out";
    for (const auto& m : *messages) store.apply(m);
    EXPECT_EQ(StoreSnapshot::of(store), expected[t]) << "slot " << t;
  }
  for (std::thread& th : agents) th.join();
  EXPECT_EQ(controller.connections_rejected(), 0u);
  // One hello plus one frame per slot (measurement or heartbeat) per node.
  EXPECT_EQ(controller.frames_received(),
            static_cast<std::uint64_t>(kNodes * (kSlots + 1)));
}

TEST(NetSocket, WaitForAgentsCountsNodesWhoseSocketAlreadyClosed) {
  // A fast agent can push its whole run into the TCP buffer and exit before
  // the controller pumps even once; its buffered frames must still count
  // and collect. Emulated with a raw socket that never waits for the ack.
  ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = 1;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);
  {
    Socket sock = Socket::connect_tcp("127.0.0.1", controller.port(), 2000);
    ASSERT_TRUE(sock.write_all(
        wire::encode(wire::HelloFrame{.node = 0, .num_resources = 1}), 2000));
    for (std::size_t t = 0; t < 5; ++t) {
      transport::MeasurementMessage m;
      m.node = 0;
      m.step = t;
      m.values = {static_cast<double>(t)};
      ASSERT_TRUE(sock.write_all(wire::encode(m), 2000));
    }
  }  // socket closes here, before the controller has read anything

  ASSERT_TRUE(controller.wait_for_agents(1, 5000));
  EXPECT_EQ(controller.nodes_seen(), 1u);
  EXPECT_EQ(controller.connected_agents(), 0u);  // it is gone, after all
  for (std::size_t t = 0; t < 5; ++t) {
    auto messages = controller.collect_slot(t, 2000);
    ASSERT_TRUE(messages.has_value());
    ASSERT_EQ(messages->size(), 1u);
    EXPECT_EQ((*messages)[0].step, t);
    EXPECT_EQ((*messages)[0].values, std::vector<double>{double(t)});
  }
}

TEST(NetSocket, OneMillisecondPumpIdleLoopAcceptsAConnectingAgent) {
  // A 1 ms pump_idle leaves a sub-millisecond remainder once its deadline
  // is set; rounding that down to 0 returned before the first pump, so a
  // loop of them never accepted anyone.
  ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = 1;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);
  Socket sock = Socket::connect_tcp("127.0.0.1", controller.port(), 2000);
  ASSERT_TRUE(sock.write_all(
      wire::encode(wire::HelloFrame{.node = 0, .num_resources = 1}), 2000));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (controller.nodes_seen() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    controller.pump_idle(1);
  }
  EXPECT_EQ(controller.nodes_seen(), 1u);
  EXPECT_EQ(controller.connected_agents(), 1u);
}

TEST(NetSocket, ConnectGivesUpAfterBoundedBackoffAttempts) {
  // Grab an ephemeral port, then close the listener so nothing serves it.
  std::uint16_t dead_port = 0;
  {
    Socket listener = Socket::listen_tcp("127.0.0.1", 0);
    dead_port = listener.local_port();
  }

  AgentOptions aopts;
  aopts.upstream.port = dead_port;
  aopts.num_resources = 1;
  aopts.upstream.max_reconnect_attempts = 3;
  aopts.upstream.initial_backoff_ms = 1;
  aopts.upstream.max_backoff_ms = 4;
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  EXPECT_THROW(agent.connect(), SocketError);
  EXPECT_FALSE(agent.connected());
  EXPECT_EQ(agent.reconnects(), 0u);
}

TEST(NetSocket, HelloRejectionIsTerminalNotRetried) {
  ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = 3;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  AgentOptions aopts;
  aopts.upstream.port = controller.port();
  aopts.node = 7;  // out of range for a 2-node controller
  aopts.num_resources = 3;
  aopts.upstream.initial_backoff_ms = 1;
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  EXPECT_THROW(connect_pumping(controller, [&] { agent.connect(); }),
               SocketError);
  EXPECT_EQ(controller.nodes_seen(), 0u);
  EXPECT_GE(controller.connections_rejected(), 1u);
}

TEST(NetSocket, DimensionMismatchIsRejected) {
  ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = 3;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  AgentOptions aopts;
  aopts.upstream.port = controller.port();
  aopts.node = 0;
  aopts.num_resources = 2;  // controller expects 3
  aopts.upstream.initial_backoff_ms = 1;
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  EXPECT_THROW(connect_pumping(controller, [&] { agent.connect(); }),
               SocketError);
  EXPECT_EQ(controller.nodes_seen(), 0u);
}

TEST(NetSocket, NewerConnectionForTheSameNodeWinsOverTheStaleOne) {
  // The controller cannot tell a half-open zombie from a live connection
  // (lost RST, partition), so a fresh hello for an already-connected node
  // is authoritative: the old socket is dropped, the new one accepted.
  // Anything else makes reconnection terminal exactly when it matters.
  ControllerOptions copts;
  copts.num_nodes = 1;  // slot 0 completes on node 0's progress alone
  copts.num_resources = 1;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  AgentOptions aopts;
  aopts.upstream.port = controller.port();
  aopts.node = 0;
  aopts.num_resources = 1;
  aopts.upstream.initial_backoff_ms = 1;
  const auto factory =
      collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0);

  Agent first(aopts, factory());
  connect_pumping(controller, [&] { first.connect(); });
  ASSERT_TRUE(first.connected());

  // wait_for_agents(1) would return without pumping (node 0 was already
  // seen), so run the second handshake in a thread while the main thread
  // pumps through collect_slot until the measurement lands.
  Agent second(aopts, factory());
  const std::vector<double> x = {0.25};
  std::thread connector([&] {
    second.connect();  // must not throw: newest wins
    second.observe(0, x);
  });
  auto messages = controller.collect_slot(0, 10000);
  connector.join();

  ASSERT_TRUE(second.connected());
  EXPECT_EQ(controller.nodes_seen(), 1u);  // still one distinct node
  EXPECT_EQ(controller.connections_rejected(), 0u);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 1u);
  EXPECT_EQ((*messages)[0].values, x);
  EXPECT_EQ(controller.connected_agents(), 1u);
}

TEST(NetSocket, SecondHelloOnOneStreamIsStillRejected) {
  // Newest-wins applies across connections, not within one: a stream that
  // already completed its handshake and hellos again is a protocol
  // violation and gets dropped.
  ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = 1;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  Socket sock = Socket::connect_tcp("127.0.0.1", controller.port(), 2000);
  const auto hello = wire::encode(wire::HelloFrame{.node = 0, .num_resources = 1});
  ASSERT_TRUE(sock.write_all(hello, 2000));
  ASSERT_TRUE(sock.write_all(hello, 2000));  // second hello, same stream
  ASSERT_TRUE(controller.wait_for_agents(1, 5000));
  // Pump until the violation is processed and the connection dropped.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (controller.connections_rejected() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    controller.collect_slot(0, 20);  // times out; pumps the loop
  }
  EXPECT_EQ(controller.connections_rejected(), 1u);
  EXPECT_EQ(controller.connected_agents(), 0u);
  EXPECT_EQ(controller.nodes_seen(), 1u);
}

TEST(NetSocket, SendCountersSplitPolicyDecisionsFromDeliveries) {
  // measurements_sent counts the policy's beta = 1 decisions; frames_sent
  // and bytes_sent count what the frame hook actually let onto the wire.
  constexpr std::uint32_t kDims = 2;
  ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = kDims;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  obs::MetricsRegistry registry;
  AgentOptions aopts;
  aopts.upstream.port = controller.port();
  aopts.num_resources = kDims;
  aopts.metrics = &registry;
  aopts.frame_hook = [](std::size_t step,
                        const std::vector<std::uint8_t>& frame) {
    FrameAction action;
    if (step % 2 == 0) action.frames.push_back(frame);  // drop odd slots
    return action;
  };
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  connect_pumping(controller, [&] { agent.connect(); });
  const std::vector<double> x = {0.25, 0.75};
  for (std::size_t t = 0; t < 10; ++t) agent.observe(t, x);

  EXPECT_EQ(agent.measurements_sent(), 10u);
  EXPECT_EQ(agent.frames_sent(), 5u);
  EXPECT_EQ(agent.bytes_sent(), 5 * wire::measurement_frame_size(kDims));
  const obs::Labels node = {{"node", "0"}};
  EXPECT_EQ(registry.value("resmon_agent_measurements_sent_total", node),
            static_cast<double>(agent.measurements_sent()));
  EXPECT_EQ(registry.value("resmon_agent_frames_sent_total", node),
            static_cast<double>(agent.frames_sent()));
  EXPECT_EQ(registry.value("resmon_agent_bytes_sent_total", node),
            static_cast<double>(agent.bytes_sent()));
  EXPECT_EQ(registry.value("resmon_agent_heartbeats_sent_total", node), 0.0);
}

TEST(NetSocket, AgentReconnectsAfterTheControllerRestarts) {
  ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = 1;
  auto controller = std::make_unique<Controller>(
      Socket::listen_tcp("127.0.0.1", 0), copts);
  const std::uint16_t port = controller->port();

  AgentOptions aopts;
  aopts.upstream.port = port;
  aopts.node = 0;
  aopts.num_resources = 1;
  aopts.upstream.initial_backoff_ms = 1;
  aopts.upstream.max_backoff_ms = 50;
  aopts.upstream.max_reconnect_attempts = 20;
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  connect_pumping(*controller, [&] { agent.connect(); });
  ASSERT_TRUE(agent.connected());

  // Kill the controller (closes listener + connection), restart on the same
  // port (SO_REUSEADDR), and keep observing: the agent must notice the dead
  // connection, re-handshake, and deliver the later slots to the new
  // controller, which answers the hello while it is pumped.
  controller.reset();
  controller = std::make_unique<Controller>(
      Socket::listen_tcp("127.0.0.1", port), copts);
  connect_pumping(*controller, [&] {
    const std::vector<double> x = {0.5};
    for (std::size_t t = 0; t < 10; ++t) agent.observe(t, x);
  });
  EXPECT_GE(agent.reconnects(), 1u);
  EXPECT_EQ(controller->nodes_seen(), 1u);

  // Slot 9 was sent strictly after the re-handshake, so the new controller
  // must be able to collect it.
  auto messages = controller->collect_slot(9, 5000);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 1u);
  EXPECT_EQ((*messages)[0].step, 9u);
}

TEST(ConnectPumping, RethrowsTheFirstRejectionAfterJoiningEveryHelper) {
  // Two agents handshake with a 2-node controller at once; node 1 declares
  // the wrong dimensionality. The good handshake still completes, and the
  // rejection surfaces on the pumping thread once both helpers are joined.
  ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = 3;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  AgentOptions good_opts;
  good_opts.upstream.port = controller.port();
  good_opts.node = 0;
  good_opts.num_resources = 3;
  good_opts.upstream.initial_backoff_ms = 1;
  AgentOptions bad_opts = good_opts;
  bad_opts.node = 1;
  bad_opts.num_resources = 2;  // controller expects 3
  const auto factory =
      collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0);
  Agent good(good_opts, factory());
  Agent bad(bad_opts, factory());

  const std::function<void()> connects[] = {[&] { good.connect(); },
                                            [&] { bad.connect(); }};
  std::string error;
  try {
    connect_pumping(controller, connects);
  } catch (const SocketError& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("dimension mismatch"), std::string::npos) << error;
  EXPECT_TRUE(good.connected());
  EXPECT_FALSE(bad.connected());
  EXPECT_EQ(controller.nodes_seen(), 1u);
  EXPECT_EQ(controller.connected_agents(), 1u);
}

// -- the pooled inbox against per-node deques --------------------------------

transport::MeasurementMessage random_message(std::size_t node,
                                             std::size_t step,
                                             std::mt19937_64& rng) {
  std::uniform_real_distribution<double> value(0.0, 1.0);
  transport::MeasurementMessage m;
  m.node = node;
  m.step = step;
  m.values = {value(rng), value(rng)};
  return m;
}

TEST(InboxOracle, SlotInboxTakesWhatPerNodeDequesTake) {
  // Steps land around the slot being taken: late ones, duplicates, and
  // later steps queued ahead of earlier ones; slots advance by 0 (taken
  // again), 1 or 2 (one skipped).
  constexpr std::size_t kNodes = 16;
  std::mt19937_64 rng(11);
  SlotInbox inbox(kNodes);
  oracle::ReferenceInbox reference(kNodes, 0);
  std::size_t t = 0;
  std::size_t taken = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::size_t pushes = rng() % 24;
    for (std::size_t i = 0; i < pushes; ++i) {
      const std::size_t step = t + rng() % 4 - std::min<std::size_t>(t, 1);
      const transport::MeasurementMessage m =
          random_message(rng() % kNodes, step, rng);
      reference.push(m);
      inbox.push(m.node, transport::MeasurementMessage(m));
    }
    const std::vector<transport::MeasurementMessage> expected =
        reference.take(t);
    ASSERT_EQ(inbox.take(t), expected) << "round " << round << ", slot " << t;
    taken += expected.size();
    t += rng() % 3;
  }
  EXPECT_GT(taken, 5000u);
}

TEST(InboxOracle, CollectSlotMatchesPerNodeDequesOverRandomArrivals) {
  // Four direct agents and two four-node shards send random arrival
  // streams over real sockets: resend duplicates, heartbeats, a later step
  // ahead of an earlier one, late frames, empty and degraded summaries, and
  // one stretch of silence each for an agent and a shard, long enough on
  // the injected clock to turn them STALE. Before each collect the test
  // pumps until every written byte is read, so a zero-timeout collect_slot
  // sees exactly what the oracle saw.
  constexpr std::size_t kAgents = 4;
  constexpr std::size_t kShardNodes = 4;
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kNodes = kAgents + kShards * kShardNodes;
  constexpr long long kStaleAfterMs = 100;
  constexpr std::size_t kBatches = 300;

  long long now_ms = 0;
  const auto origin = std::chrono::steady_clock::now();
  ControllerOptions copts;
  copts.num_nodes = kNodes;
  copts.num_resources = 2;
  copts.num_shards = kShards;
  copts.stale_after_ms = kStaleAfterMs;
  copts.staleness_clock = [&] {
    return origin + std::chrono::milliseconds(now_ms);
  };
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);
  oracle::ReferenceInbox reference(kNodes, kStaleAfterMs);

  std::uint64_t written = 0;
  const auto send = [&](Socket& sock, const std::vector<std::uint8_t>& bytes) {
    ASSERT_TRUE(sock.write_all(bytes, 2000));
    written += bytes.size();
  };
  const auto settle = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (controller.bytes_received() < written &&
           std::chrono::steady_clock::now() < deadline) {
      controller.pump_idle(2);
    }
    ASSERT_EQ(controller.bytes_received(), written);
    reference.update_states(now_ms);
  };

  std::vector<Socket> agents;
  for (std::size_t node = 0; node < kAgents; ++node) {
    agents.push_back(Socket::connect_tcp("127.0.0.1", controller.port(), 2000));
    send(agents.back(),
         wire::encode(wire::HelloFrame{
             .node = static_cast<std::uint32_t>(node), .num_resources = 2}));
    reference.hello(node, now_ms);
  }
  std::vector<Socket> shards;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    const std::size_t first = kAgents + shard * kShardNodes;
    shards.push_back(Socket::connect_tcp("127.0.0.1", controller.port(), 2000));
    send(shards.back(),
         wire::encode(wire::ShardHelloFrame{
             .shard = static_cast<std::uint32_t>(shard),
             .first_node = static_cast<std::uint32_t>(first),
             .num_nodes = kShardNodes,
             .num_resources = 2}));
    for (std::size_t node = first; node < first + kShardNodes; ++node) {
      reference.hello(node, now_ms);
    }
  }
  settle();
  ASSERT_EQ(controller.nodes_seen(), kNodes);
  ASSERT_EQ(controller.shards_seen(), kShards);

  std::mt19937_64 rng(5);
  std::size_t next_t = 0;
  std::size_t collected = 0;
  std::size_t measurements = 0;
  for (std::size_t s = 0; s < kBatches; ++s) {
    now_ms += static_cast<long long>(rng() % 40);
    for (std::size_t node = 0; node < kAgents; ++node) {
      const auto measure = [&](std::size_t step) {
        const transport::MeasurementMessage m = random_message(node, step, rng);
        send(agents[node], wire::encode(m));
        reference.measurement(m, now_ms);
      };
      const auto beat = [&](std::size_t step) {
        send(agents[node], wire::encode(wire::HeartbeatFrame{
                               .node = static_cast<std::uint32_t>(node),
                               .step = step}));
        reference.heartbeat(node, step, now_ms);
      };
      if (node == 0 && s >= 100 && s < 130) continue;  // goes STALE
      switch (rng() % 10) {
        case 0:  // silent this slot
          break;
        case 1:
          beat(s);
          break;
        case 2:  // resend duplicate: the first to arrive wins
          measure(s);
          measure(s);
          break;
        case 3:  // a later step ahead of the earlier one
          measure(s + 1);
          measure(s);
          break;
        case 4:
          beat(s);
          measure(s);
          break;
        case 5:  // a late frame from the slot before
          if (s > 0) measure(s - 1);
          measure(s);
          break;
        default:
          measure(s);
          break;
      }
    }
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      const std::size_t first = kAgents + shard * kShardNodes;
      const auto summarize = [&](std::size_t step, bool empty) {
        wire::SlotSummaryFrame summary{
            .shard = static_cast<std::uint32_t>(shard),
            .step = step,
            .degraded = static_cast<std::uint32_t>(empty || rng() % 5 == 0),
            .num_resources = 2};
        for (std::size_t node = first; !empty && node < first + kShardNodes;
             ++node) {
          if (rng() % 10 < 7) {
            summary.measurements.push_back(random_message(node, step, rng));
          }
        }
        send(shards[shard], wire::encode(summary));
        reference.summary(first, kShardNodes, step, summary.degraded,
                          summary.measurements, now_ms);
      };
      if (shard == 1 && s >= 200 && s < 230) continue;  // goes STALE
      switch (rng() % 8) {
        case 0:  // silent this slot
          break;
        case 1:  // every node skipped: empty and degraded
          summarize(s, true);
          break;
        case 2:  // resend duplicate
          summarize(s, false);
          summarize(s, false);
          break;
        case 3:  // a later step ahead of the earlier one
          summarize(s + 1, false);
          summarize(s, false);
          break;
        default:
          summarize(s, false);
          break;
      }
    }
    settle();
    // Usually the next slot; sometimes a slot is taken again or skipped.
    for (int k = 0; k < 3 && next_t <= s; ++k) {
      const auto expected = reference.collect(next_t);
      const auto actual = controller.collect_slot(next_t, 0);
      ASSERT_EQ(actual.has_value(), expected.has_value())
          << "batch " << s << ", slot " << next_t;
      ASSERT_EQ(controller.degraded_slots(), reference.degraded_slots())
          << "batch " << s << ", slot " << next_t;
      if (!expected) break;
      ASSERT_EQ(*actual, *expected) << "batch " << s << ", slot " << next_t;
      ++collected;
      measurements += expected->size();
      const std::size_t r = rng() % 10;
      next_t += r == 0 ? 0 : (r == 1 ? 2 : 1);
    }
  }
  EXPECT_GT(collected, kBatches / 2);
  EXPECT_GT(measurements, 1000u);
  EXPECT_GT(reference.degraded_slots(), 10u);
  EXPECT_GT(controller.stale_transitions(), 0u);
}

}  // namespace
}  // namespace resmon::net
