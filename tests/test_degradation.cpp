// Graceful-degradation tests: the controller's LIVE -> STALE -> DEAD
// staleness machine over real sockets — barrier skip, sample-and-hold
// substitution, eviction, rejoin, and controller-side partitions.
//
// Silence is measured on a hand-advanced ManualClock injected through
// ControllerOptions::staleness_clock, so every transition below happens at
// an exact, asserted slot regardless of scheduler or sanitizer slowdowns —
// no sleeps, no wall-clock deadlines, no flakes.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "agg/aggregator.hpp"
#include "collect/fleet_collector.hpp"
#include "faultnet/agent_hook.hpp"
#include "golden_fixture.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "scenario/manual_clock.hpp"
#include "scenario/socket_fleet.hpp"
#include "transport/channel.hpp"

namespace resmon::net {
namespace {

constexpr int kMsPerSlot = scenario::SocketFleet::kMsPerSlot;

const auto kAlways =
    collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0);

/// A lock-step fleet of always-transmitting agents (behind `shards`
/// aggregators; 0 = one tier) whose collectors turn a node STALE after 1.5
/// slots of silence and DEAD after `dead_after_slots` + 0.5: the half-slot
/// offset keeps the thresholds off exact multiples, so a live node (whose
/// silence peaks at whole slots) can never tie the limit.
scenario::SocketFleetOptions fleet_options(std::size_t shards,
                                           std::size_t dead_after_slots,
                                           obs::MetricsRegistry* metrics) {
  return {.shards = shards,
          .policy = kAlways,
          .stale_after_slots = 1,
          .dead_after_slots = dead_after_slots,
          .metrics = metrics};
}

TEST(Degradation, StalenessThresholdPastIntMillisecondsIsRejected) {
  // 21,474,836 slots * 100 ms + 50 ms overflows an int; one slot fewer
  // fits.
  EXPECT_THROW(
      scenario::SocketFleet(1, 1, fleet_options(0, 21474836, nullptr)),
      InvalidArgument);
  EXPECT_NO_THROW(
      scenario::SocketFleet(1, 1, fleet_options(0, 21474835, nullptr)));
}

TEST(Degradation, SilentNodeGoesStaleThenDeadWhileTheBarrierCompletes) {
  constexpr std::size_t kSlots = 10;
  constexpr std::size_t kQuitAfter = 5;  // node 1 dies after this many slots
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 2, kSlots, 21);

  obs::MetricsRegistry registry;
  scenario::SocketFleet fleet(2, trace.num_resources(),
                              fleet_options(0, 4, &registry));
  transport::CentralStore store(2, trace.num_resources());
  for (std::size_t t = 0; t < kSlots; ++t) {
    if (t == kQuitAfter) fleet.kill(1);  // the quiet death
    fleet.observe(t, trace);
    for (const auto& m : fleet.collect(t)) store.apply(m);
  }

  // Node 1 fell silent after slot 4. Its frame for slot 4 landed at manual
  // time 500ms, so it crossed stale_after during slot 5's barrier wait
  // (whose retry ages the clock one extra slot) and dead_after during slot
  // 8's — every count below is exact.
  const Controller& controller = fleet.root();
  EXPECT_EQ(controller.stale_transitions(), 1u);
  EXPECT_EQ(controller.dead_transitions(), 1u);
  EXPECT_EQ(controller.degraded_slots(), kSlots - kQuitAfter);
  EXPECT_EQ(controller.node_state(1), NodeState::kDead);
  // Node 0 kept observing every slot, so the frozen clock leaves it LIVE —
  // with wall-clock silence it would have aged out after the loop too.
  EXPECT_EQ(controller.node_state(0), NodeState::kLive);
  // Sample-and-hold: the silent node's last sample stays in the store.
  EXPECT_TRUE(store.has(1));
  EXPECT_EQ(store.last_update_step(1), kQuitAfter - 1);

  // The states are visible on the wire exposition.
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("resmon_net_node_state{node=\"1\"} 2"),
            std::string::npos)
      << text;
}

TEST(Degradation, RejoiningNodeIsPromotedBackToLive) {
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 1, 10, 21);

  scenario::ManualClock clock;
  ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = trace.num_resources();
  copts.stale_after_ms = kMsPerSlot + kMsPerSlot / 2;
  copts.dead_after_ms = 2 * kMsPerSlot + kMsPerSlot / 2;
  copts.staleness_clock = clock.now_fn();
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  AgentOptions aopts;
  aopts.upstream.port = controller.port();
  aopts.num_resources = static_cast<std::uint32_t>(trace.num_resources());
  {
    Agent agent(aopts, kAlways());
    connect_pumping(controller, [&] { agent.connect(); });
    agent.observe(0, trace.measurement(0, 0));
    ASSERT_TRUE(controller.collect_slot(0, 5000).has_value());
  }  // agent gone afterwards: node 0 falls silent

  // Age the silence three slots past the frame: STALE, then DEAD, purely
  // from the manual clock — pump_idle only runs the timers.
  clock.advance_ms(3 * kMsPerSlot);
  controller.pump_idle(50);
  EXPECT_EQ(controller.node_state(0), NodeState::kDead);

  // A restarted agent resumes mid-run: the fresh hello alone rejoins the
  // node, and its progress picks up where the new process starts. With
  // every node DEAD the slot barrier is trivially complete, so the rejoin
  // handshake must be pumped explicitly before collecting the slot.
  Agent restarted(aopts, kAlways());
  connect_pumping(controller, [&] { restarted.connect(); });
  EXPECT_EQ(controller.node_state(0), NodeState::kLive);
  restarted.observe(5, trace.measurement(0, 5));
  auto messages = controller.collect_slot(5, 5000);
  ASSERT_TRUE(messages.has_value());
  ASSERT_EQ(messages->size(), 1u);
  EXPECT_EQ(controller.node_state(0), NodeState::kLive);
  EXPECT_EQ(controller.rejoins(), 1u);
}

TEST(Degradation, AggregatorShardStalenessPropagatesToRootAccounting) {
  // Two-tier twin of SilentNodeGoesStaleThenDead: the same 2-node fleet and
  // the same quiet death, but the agents now front an Aggregator whose
  // local staleness machine (same ManualClock thresholds) must (a) degrade
  // the shard barrier locally and (b) propagate the verdict upstream so
  // the root's degraded-slot accounting matches the single-tier run
  // exactly — 1 stale transition, 1 dead transition, kSlots - kQuitAfter
  // degraded slots. The root runs no staleness machine: in a two-tier
  // topology the shard owns per-node silence.
  constexpr std::size_t kSlots = 10;
  constexpr std::size_t kQuitAfter = 5;
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 2, kSlots, 21);

  obs::MetricsRegistry registry;
  scenario::SocketFleet fleet(2, trace.num_resources(),
                              fleet_options(1, 4, &registry));
  agg::Aggregator& aggregator = fleet.aggregator(0);
  const Controller& root = fleet.root();
  transport::CentralStore store(2, trace.num_resources());
  for (std::size_t t = 0; t < kSlots; ++t) {
    if (t == kQuitAfter) fleet.kill(1);  // the quiet death
    fleet.observe(t, trace);
    const auto messages = fleet.collect(t);
    // Post-death slots deliver exactly the surviving node's measurement,
    // the same as the single-tier barrier skipping the silent node.
    EXPECT_EQ(messages.size(), t >= kQuitAfter ? 1u : 2u) << "slot " << t;
    for (const auto& m : messages) store.apply(m);
  }

  // The shard saw the same transition timeline as the single-tier twin...
  const Controller& shard = aggregator.downstream();
  EXPECT_EQ(shard.stale_transitions(), 1u);
  EXPECT_EQ(shard.dead_transitions(), 1u);
  EXPECT_EQ(shard.degraded_slots(), kSlots - kQuitAfter);
  EXPECT_EQ(shard.node_state(1), NodeState::kDead);
  EXPECT_EQ(shard.node_state(0), NodeState::kLive);

  // ...every degraded verdict rode its slot summary upstream...
  EXPECT_EQ(aggregator.degraded_slots_forwarded(), kSlots - kQuitAfter);

  // ...and the root's accounting matches the single-tier run exactly,
  // without running a staleness machine of its own.
  EXPECT_EQ(root.degraded_slots(), kSlots - kQuitAfter);
  EXPECT_EQ(root.summaries_received(), kSlots);

  // Sample-and-hold survives the extra tier: the dead node's last sample
  // reached the root and stays in the store.
  EXPECT_TRUE(store.has(1));
  EXPECT_EQ(store.last_update_step(1), kQuitAfter - 1);

  // A census reports the shard's verdicts on the root's exposition.
  aggregator.send_status();
  fleet.root().pump_idle(50);
  const std::string text = registry.render_text();
  EXPECT_NE(text.find("resmon_net_shard_dead_nodes{shard=\"0\"} 1"),
            std::string::npos)
      << text;
}

TEST(Degradation, BlockHookDiscardsPartitionWindowFrames) {
  constexpr std::size_t kSlots = 10;
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 1, kSlots, 21);

  // The clock never advances: staleness can't interfere no matter how
  // slowly a sanitized run delivers the frames.
  scenario::ManualClock clock;
  ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = trace.num_resources();
  copts.staleness_clock = clock.now_fn();
  copts.block_hook = faultnet::make_controller_block_hook(
      faultnet::FaultSpec::parse("partition=3-5;nodes=0"));
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  AgentOptions aopts;
  aopts.upstream.port = controller.port();
  aopts.num_resources = static_cast<std::uint32_t>(trace.num_resources());
  Agent agent(aopts, kAlways());
  connect_pumping(controller, [&] { agent.connect(); });
  for (std::size_t t = 0; t < kSlots; ++t) {
    agent.observe(t, trace.measurement(0, t));
  }

  // Slots outside the window deliver; in-window frames were eaten before
  // they touched progress or the inbox — but the step-6 frame had already
  // advanced the node's progress past them, so the barrier never stalls.
  for (std::size_t t = 0; t < kSlots; ++t) {
    auto messages = controller.collect_slot(t, 10000);
    ASSERT_TRUE(messages.has_value()) << "slot " << t << " timed out";
    EXPECT_EQ(messages->size(), (t >= 3 && t <= 5) ? 0u : 1u)
        << "slot " << t;
  }
  EXPECT_EQ(controller.blocked_frames(), 3u);
}

/// Every Controller accessor equals its series in the registry it counts
/// into.
void expect_controller_reads_registry(const Controller& c,
                                      const obs::MetricsRegistry& registry) {
  const std::pair<std::uint64_t, const char*> rows[] = {
      {c.frames_received(), "resmon_net_frames_total"},
      {c.bytes_received(), "resmon_net_bytes_total"},
      {c.connections_rejected(), "resmon_net_connections_rejected_total"},
      {c.stale_transitions(), "resmon_net_stale_transitions_total"},
      {c.dead_transitions(), "resmon_net_dead_transitions_total"},
      {c.rejoins(), "resmon_net_rejoins_total"},
      {c.degraded_slots(), "resmon_net_degraded_slots_total"},
      {c.blocked_frames(), "resmon_net_blocked_frames_total"},
      {c.summaries_received(), "resmon_net_summaries_total"},
      {c.summary_measurements(), "resmon_net_summary_measurements_total"},
      {c.metrics_scrapes(), "resmon_net_metrics_scrapes_total"},
      {c.stale_nodes(), "resmon_net_stale_nodes"},
      {c.dead_nodes(), "resmon_net_dead_nodes"},
      {c.connected_agents(), "resmon_net_connected_agents"},
      {c.connected_shards(), "resmon_net_shards_connected"},
  };
  for (const auto& [value, name] : rows) {
    EXPECT_EQ(registry.value(name), static_cast<double>(value)) << name;
  }
}

void expect_agent_reads_registry(const Agent& agent, std::uint32_t node,
                                 const obs::MetricsRegistry& registry) {
  const obs::Labels labels = {{"node", std::to_string(node)}};
  const std::pair<std::uint64_t, const char*> rows[] = {
      {agent.frames_sent(), "resmon_agent_frames_sent_total"},
      {agent.bytes_sent(), "resmon_agent_bytes_sent_total"},
      {agent.measurements_sent(), "resmon_agent_measurements_sent_total"},
      {agent.reconnects(), "resmon_agent_reconnects_total"},
  };
  for (const auto& [value, name] : rows) {
    EXPECT_EQ(registry.value(name, labels), static_cast<double>(value))
        << name << " of node " << node;
  }
}

TEST(OneCount, AccessorsReadTheSeriesTheRegistryExposes) {
  // Two tiers with every counted event: nodes 0-1 behind shard 0, node 2
  // direct to the root. Node 1 goes STALE -> DEAD and a restarted agent
  // rejoins it; node 0's link is cut with its slot-kSever frame, so node 0
  // goes STALE until its agent reconnects on the next frame; the root eats
  // one of node 2's frames, rejects a garbage stream and answers one
  // scrape. Each component counts only into its registry, so whatever its
  // accessors report is exactly what /metrics exposes.
  constexpr std::size_t kSlots = 12;
  constexpr std::size_t kQuit = 3;     // node 1's agent is gone from here
  constexpr std::size_t kRejoin = 8;   // a restarted node-1 agent from here
  constexpr std::size_t kSever = 10;   // node 0's link is cut on this frame
  constexpr std::uint64_t kBlocked = 5;  // the root eats node 2's frame
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 3, kSlots, 21);
  const std::size_t d = trace.num_resources();

  obs::MetricsRegistry root_registry;
  ControllerOptions copts;
  copts.num_nodes = 3;
  copts.num_resources = d;
  copts.num_shards = 1;
  copts.metrics = &root_registry;
  copts.block_hook = [](std::uint32_t node, std::uint64_t step) {
    return node == 2 && step == kBlocked;
  };
  Controller root(Socket::listen_tcp("127.0.0.1", 0), copts);
  root.serve_metrics(Socket::listen_tcp("127.0.0.1", 0));

  scenario::ManualClock clock;
  obs::MetricsRegistry agg_registry;
  obs::MetricsRegistry shard_registry;
  agg::AggregatorOptions aopts;
  aopts.num_nodes = 2;
  aopts.num_resources = d;
  aopts.upstream.port = root.port();
  aopts.stale_after_ms = kMsPerSlot + kMsPerSlot / 2;
  aopts.dead_after_ms = 3 * kMsPerSlot + kMsPerSlot / 2;
  aopts.staleness_clock = clock.now_fn();
  aopts.status_every_slots = 4;
  aopts.metrics = &agg_registry;
  aopts.net_metrics = &shard_registry;
  agg::Aggregator aggregator(Socket::listen_tcp("127.0.0.1", 0), aopts);
  connect_pumping(root, [&] { aggregator.connect_upstream(); });
  Controller& shard = aggregator.downstream();

  // Agent registries: nodes 0, 1, 2, and the restarted node 1.
  std::array<obs::MetricsRegistry, 4> agent_registry;
  const auto agent_opts = [&](std::uint32_t node, std::uint16_t port,
                              obs::MetricsRegistry& registry) {
    AgentOptions opts;
    opts.upstream.port = port;
    opts.node = node;
    opts.num_resources = static_cast<std::uint32_t>(d);
    opts.metrics = &registry;
    return opts;
  };
  AgentOptions cut = agent_opts(0, shard.port(), agent_registry[0]);
  cut.frame_hook = [](std::size_t step, const std::vector<std::uint8_t>& f) {
    FrameAction action;
    if (step == kSever) {
      action.sever = true;
    } else {
      action.frames.push_back(f);
    }
    return action;
  };
  Agent agent0(cut, kAlways());
  auto agent1 = std::make_unique<Agent>(
      agent_opts(1, shard.port(), agent_registry[1]), kAlways());
  Agent agent2(agent_opts(2, root.port(), agent_registry[2]), kAlways());
  const std::function<void()> shard_agents[] = {[&] { agent0.connect(); },
                                                [&] { agent1->connect(); }};
  connect_pumping(shard, shard_agents);
  connect_pumping(root, [&] { agent2.connect(); });
  EXPECT_EQ(shard.connected_agents(), 2u);
  EXPECT_EQ(root.connected_agents(), 1u);
  EXPECT_EQ(root.connected_shards(), 1u);
  expect_controller_reads_registry(root, root_registry);
  expect_controller_reads_registry(shard, shard_registry);
  // Node 2 writes its whole run up front; the root reads it while it
  // waits on the slot barriers.
  for (std::size_t t = 0; t < kSlots; ++t) {
    agent2.observe(t, trace.measurement(2, t));
  }

  Socket garbage = Socket::connect_tcp("127.0.0.1", root.port(), 5000);
  ASSERT_TRUE(garbage.write_all(
      std::vector<std::uint8_t>(wire::kHeaderSize, 0xAB), 5000));
  Socket scraper =
      Socket::connect_tcp("127.0.0.1", root.metrics_port(), 5000);
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(scraper.write_all(
      {reinterpret_cast<const std::uint8_t*>(get.data()), get.size()}, 5000));

  for (std::size_t t = 0; t < kSlots; ++t) {
    if (t == kQuit) {
      expect_agent_reads_registry(*agent1, 1, agent_registry[1]);
      agent1.reset();
    }
    if (t == kRejoin) {
      agent1 = std::make_unique<Agent>(
          agent_opts(1, shard.port(), agent_registry[3]), kAlways());
      connect_pumping(shard, [&] { agent1->connect(); });
    }
    if (t == kSever + 1) {
      // The link was cut on the last frame, so this one reconnects first
      // and the shard must answer its hello.
      connect_pumping(shard,
                      [&] { agent0.observe(t, trace.measurement(0, t)); });
    } else {
      agent0.observe(t, trace.measurement(0, t));
    }
    if (agent1) agent1->observe(t, trace.measurement(1, t));
    clock.advance_ms(kMsPerSlot);
    bool forwarded = false;
    for (int attempt = 0; attempt < 16 && !forwarded; ++attempt) {
      forwarded = aggregator.forward_slot(t, 200);
      if (!forwarded) clock.advance_ms(kMsPerSlot);
    }
    ASSERT_TRUE(forwarded) << "shard slot " << t << " timed out";
    ASSERT_TRUE(root.collect_slot(t, 5000).has_value())
        << "root slot " << t << " timed out";
    // Node 1's stream drops at kQuit (its barrier waited past the EOF) and
    // a restarted one connects at kRejoin: the connection counts read
    // their gauges across both.
    if (t == kQuit) {
      EXPECT_EQ(shard.connected_agents(), 1u);
    }
    expect_controller_reads_registry(shard, shard_registry);
    // The shard's node gauges, its controller's node gauges and a census
    // of its node states agree slot by slot.
    std::array<std::size_t, 3> census{};
    for (std::size_t node = 0; node < 2; ++node) {
      ++census[static_cast<std::size_t>(shard.node_state(node))];
    }
    EXPECT_EQ(shard.stale_nodes(), census[1]) << "slot " << t;
    EXPECT_EQ(shard.dead_nodes(), census[2]) << "slot " << t;
    const std::pair<std::size_t, const char*> node_gauges[] = {
        {census[0], "resmon_agg_live_nodes"},
        {census[1], "resmon_agg_stale_nodes"},
        {census[2], "resmon_agg_dead_nodes"},
    };
    for (const auto& [count, name] : node_gauges) {
      EXPECT_EQ(agg_registry.value(name, {{"shard", "0"}}),
                static_cast<double>(count))
          << name << " at slot " << t;
    }
  }
  root.pump_idle(5000, 1);  // answer the scrape

  // Every event happened...
  EXPECT_EQ(root.connections_rejected(), 1u);
  EXPECT_EQ(root.blocked_frames(), 1u);
  EXPECT_EQ(root.summaries_received(), kSlots);
  EXPECT_EQ(root.metrics_scrapes(), 1u);
  EXPECT_EQ(shard.stale_transitions(), 2u);
  EXPECT_EQ(shard.dead_transitions(), 1u);
  EXPECT_EQ(shard.rejoins(), 2u);
  EXPECT_EQ(aggregator.degraded_slots_forwarded(), kRejoin - kQuit + 1);
  EXPECT_EQ(root.degraded_slots(), aggregator.degraded_slots_forwarded());
  EXPECT_GT(aggregator.status_frames(), 0u);
  EXPECT_EQ(agent0.reconnects(), 1u);
  EXPECT_EQ(shard.connected_agents(), 2u);

  // ...and each accessor reads the series its registry exposes.
  expect_controller_reads_registry(root, root_registry);
  expect_controller_reads_registry(shard, shard_registry);
  const obs::Labels shard0 = {{"shard", "0"}};
  const std::pair<std::uint64_t, const char*> agg_rows[] = {
      {aggregator.forwarded_slots(), "resmon_agg_forwarded_slots_total"},
      {aggregator.forwarded_measurements(),
       "resmon_agg_forwarded_measurements_total"},
      {aggregator.forwarded_bytes(), "resmon_agg_forwarded_bytes_total"},
      {aggregator.degraded_slots_forwarded(),
       "resmon_agg_degraded_slots_total"},
      {aggregator.status_frames(), "resmon_agg_status_frames_total"},
      {aggregator.upstream_reconnects(),
       "resmon_agg_upstream_reconnects_total"},
  };
  for (const auto& [value, name] : agg_rows) {
    EXPECT_EQ(agg_registry.value(name, shard0), static_cast<double>(value))
        << name;
  }
  expect_agent_reads_registry(agent0, 0, agent_registry[0]);
  expect_agent_reads_registry(*agent1, 1, agent_registry[3]);
  expect_agent_reads_registry(agent2, 2, agent_registry[2]);

  // A registry backs the accessors, so it serves one controller, and one
  // agent (or aggregator) per node (shard) id.
  ControllerOptions twin = copts;
  twin.block_hook = {};
  EXPECT_THROW(Controller(Socket::listen_tcp("127.0.0.1", 0), twin),
               InvalidArgument);
  EXPECT_THROW(
      Agent(agent_opts(0, shard.port(), agent_registry[0]), kAlways()),
      InvalidArgument);
  EXPECT_THROW(
      Agent(agent_opts(1, shard.port(), agent_registry[1]), kAlways()),
      InvalidArgument);
  EXPECT_NO_THROW(
      Agent(agent_opts(2, shard.port(), agent_registry[0]), kAlways()));
  obs::MetricsRegistry fresh;
  agg::AggregatorOptions second = aopts;
  second.net_metrics = &fresh;
  EXPECT_THROW(agg::Aggregator(Socket::listen_tcp("127.0.0.1", 0), second),
               InvalidArgument);
}

}  // namespace
}  // namespace resmon::net
