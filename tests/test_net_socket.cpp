// Socket runtime tests: the real TCP agent/controller path against
// 127.0.0.1, checked bit-for-bit against the in-process LoopbackLink path,
// plus the handshake-rejection and reconnect-backoff behavior.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "collect/fleet_collector.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "net/loopback.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
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
        snap.values.push_back(store.stored(node));
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

TEST(NetSocket, TcpRunIsBitIdenticalToTheLoopbackLinkPath) {
  constexpr std::size_t kNodes = 6;
  constexpr std::size_t kSlots = 80;
  const trace::InMemoryTrace trace = make_trace(kNodes, kSlots, 7);
  const auto factory =
      collect::make_policy_factory(collect::PolicyKind::kAdaptive, 0.3);

  // Reference: the in-process path through the same wire codec.
  collect::FleetCollector reference(trace, factory, nullptr,
                                    std::make_unique<LoopbackLink>());
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
      aopts.port = controller.port();
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

TEST(NetSocket, ConnectGivesUpAfterBoundedBackoffAttempts) {
  // Grab an ephemeral port, then close the listener so nothing serves it.
  std::uint16_t dead_port = 0;
  {
    Socket listener = Socket::listen_tcp("127.0.0.1", 0);
    dead_port = listener.local_port();
  }

  AgentOptions aopts;
  aopts.port = dead_port;
  aopts.num_resources = 1;
  aopts.max_reconnect_attempts = 3;
  aopts.initial_backoff_ms = 1;
  aopts.max_backoff_ms = 4;
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  EXPECT_THROW(agent.connect(), SocketError);
  EXPECT_FALSE(agent.connected());
  EXPECT_EQ(agent.reconnects(), 0u);
}

/// Pump the controller's loop from a second thread while the agent under
/// test runs its blocking handshake on this one.
class PumpThread {
 public:
  PumpThread(Controller& controller, std::size_t count, int timeout_ms)
      : thread_([&controller, count, timeout_ms] {
          controller.wait_for_agents(count, timeout_ms);
        }) {}
  ~PumpThread() { thread_.join(); }

 private:
  std::thread thread_;
};

TEST(NetSocket, HelloRejectionIsTerminalNotRetried) {
  ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = 3;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  AgentOptions aopts;
  aopts.port = controller.port();
  aopts.node = 7;  // out of range for a 2-node controller
  aopts.num_resources = 3;
  aopts.initial_backoff_ms = 1;
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  {
    PumpThread pump(controller, 1, 1500);
    EXPECT_THROW(agent.connect(), SocketError);
  }
  EXPECT_EQ(controller.nodes_seen(), 0u);
  EXPECT_GE(controller.connections_rejected(), 1u);
}

TEST(NetSocket, DimensionMismatchIsRejected) {
  ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = 3;
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  AgentOptions aopts;
  aopts.port = controller.port();
  aopts.node = 0;
  aopts.num_resources = 2;  // controller expects 3
  aopts.initial_backoff_ms = 1;
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  {
    PumpThread pump(controller, 1, 1500);
    EXPECT_THROW(agent.connect(), SocketError);
  }
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
  aopts.port = controller.port();
  aopts.node = 0;
  aopts.num_resources = 1;
  aopts.initial_backoff_ms = 1;
  const auto factory =
      collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0);

  Agent first(aopts, factory());
  {
    PumpThread pump(controller, 1, 5000);
    first.connect();
  }
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

TEST(NetSocket, AgentReconnectsAfterTheControllerRestarts) {
  ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = 1;
  auto controller = std::make_unique<Controller>(
      Socket::listen_tcp("127.0.0.1", 0), copts);
  const std::uint16_t port = controller->port();

  AgentOptions aopts;
  aopts.port = port;
  aopts.node = 0;
  aopts.num_resources = 1;
  aopts.initial_backoff_ms = 1;
  aopts.max_backoff_ms = 50;
  aopts.max_reconnect_attempts = 20;
  Agent agent(aopts, collect::make_policy_factory(
                         collect::PolicyKind::kAlways, 1.0)());
  {
    PumpThread pump(*controller, 1, 5000);
    agent.connect();
  }
  ASSERT_TRUE(agent.connected());

  // Kill the controller (closes listener + connection), restart on the same
  // port (SO_REUSEADDR), and keep observing: the agent must notice the dead
  // connection, re-handshake, and deliver the later slots to the new
  // controller.
  controller.reset();
  controller = std::make_unique<Controller>(
      Socket::listen_tcp("127.0.0.1", port), copts);
  {
    PumpThread pump(*controller, 1, 10000);
    const std::vector<double> x = {0.5};
    for (std::size_t t = 0; t < 10; ++t) agent.observe(t, x);
  }
  EXPECT_GE(agent.reconnects(), 1u);
  EXPECT_EQ(controller->nodes_seen(), 1u);

  // Slot 9 was sent strictly after the re-handshake, so the new controller
  // must be able to collect it.
  auto messages = controller->collect_slot(9, 5000);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 1u);
  EXPECT_EQ((*messages)[0].step, 9u);
}

}  // namespace
}  // namespace resmon::net
