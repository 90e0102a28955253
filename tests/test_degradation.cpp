// Graceful-degradation tests: the controller's LIVE -> STALE -> DEAD
// staleness machine over real sockets — barrier skip, sample-and-hold
// substitution, eviction, rejoin, and controller-side partitions.
//
// Silence is measured on a hand-advanced ManualClock injected through
// ControllerOptions::staleness_clock, so every transition below happens at
// an exact, asserted slot regardless of scheduler or sanitizer slowdowns —
// no sleeps, no wall-clock deadlines, no flakes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
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
#include "transport/channel.hpp"

namespace resmon::net {
namespace {

constexpr int kMsPerSlot = 100;

AgentOptions agent_options(const Controller& controller, std::uint32_t node,
                           std::size_t num_resources) {
  AgentOptions opts;
  opts.upstream.port = controller.port();
  opts.node = node;
  opts.num_resources = static_cast<std::uint32_t>(num_resources);
  return opts;
}

const auto kAlways =
    collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0);

/// Connect a fleet of agents whose hello/ack handshakes block until the
/// controller pumps: each connect runs on a helper thread while the main
/// thread drives wait_for_agents.
std::vector<std::unique_ptr<Agent>> connect_fleet(
    Controller& controller, std::size_t count, std::size_t num_resources) {
  std::vector<std::unique_ptr<Agent>> agents(count);
  std::vector<std::thread> connectors;
  connectors.reserve(count);
  for (std::uint32_t node = 0; node < count; ++node) {
    agents[node] = std::make_unique<Agent>(
        agent_options(controller, node, num_resources), kAlways());
    connectors.emplace_back([&, node] { agents[node]->connect(); });
  }
  EXPECT_TRUE(controller.wait_for_agents(count, 10000));
  for (std::thread& th : connectors) th.join();
  return agents;
}

/// One lock-step slot: frames are already written, the manual clock has
/// advanced, and the barrier may need extra pumps (each aging the clock one
/// more slot) before staleness lets a silent node be skipped.
std::optional<std::vector<transport::MeasurementMessage>> collect_aging(
    Controller& controller, scenario::ManualClock& clock, std::size_t t) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto messages = controller.collect_slot(t, 200);
    if (messages.has_value()) return messages;
    clock.advance_ms(kMsPerSlot);
  }
  return std::nullopt;
}

TEST(Degradation, SilentNodeGoesStaleThenDeadWhileTheBarrierCompletes) {
  constexpr std::size_t kSlots = 10;
  constexpr std::size_t kQuitAfter = 5;  // node 1 dies after this many slots
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 2, kSlots, 21);

  scenario::ManualClock clock;
  obs::MetricsRegistry registry;
  ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = trace.num_resources();
  copts.metrics = &registry;
  // 1.5 / 4.5 slots of silence: the half-slot offset keeps the thresholds
  // off exact multiples, so a live node (whose silence peaks at whole
  // slots) can never tie the limit.
  copts.stale_after_ms = kMsPerSlot + kMsPerSlot / 2;
  copts.dead_after_ms = 4 * kMsPerSlot + kMsPerSlot / 2;
  copts.staleness_clock = clock.now_fn();
  Controller controller(Socket::listen_tcp("127.0.0.1", 0), copts);

  auto agents = connect_fleet(controller, 2, trace.num_resources());
  transport::CentralStore store(2, trace.num_resources());
  for (std::size_t t = 0; t < kSlots; ++t) {
    if (t == kQuitAfter) agents[1].reset();  // the quiet death
    for (std::size_t node = 0; node < 2; ++node) {
      if (agents[node]) agents[node]->observe(t, trace.measurement(node, t));
    }
    clock.advance_ms(kMsPerSlot);
    auto messages = collect_aging(controller, clock, t);
    ASSERT_TRUE(messages.has_value()) << "slot " << t << " timed out";
    for (const auto& m : *messages) store.apply(m);
  }

  // Node 1 fell silent after slot 4. Its frame for slot 4 landed at manual
  // time 500ms, so it crossed stale_after during slot 5's barrier wait
  // (whose retry ages the clock one extra slot) and dead_after during slot
  // 8's — every count below is exact.
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

  {
    auto agents = connect_fleet(controller, 1, trace.num_resources());
    agents[0]->observe(0, trace.measurement(0, 0));
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
  Agent restarted(agent_options(controller, 0, trace.num_resources()),
                  kAlways());
  std::thread connector([&] { restarted.connect(); });
  for (int rounds = 0;
       rounds < 1000 && controller.node_state(0) != NodeState::kLive;
       ++rounds) {
    controller.pump_idle(10);
  }
  connector.join();
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
  // degraded slots.
  constexpr std::size_t kSlots = 10;
  constexpr std::size_t kQuitAfter = 5;
  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("alibaba", 2, kSlots, 21);

  // Root: staleness disabled — in a two-tier topology the shard owns
  // per-node silence; the root only consumes summary degraded counts.
  obs::MetricsRegistry root_registry;
  ControllerOptions copts;
  copts.num_nodes = 2;
  copts.num_resources = trace.num_resources();
  copts.num_shards = 1;
  copts.metrics = &root_registry;
  Controller root(Socket::listen_tcp("127.0.0.1", 0), copts);

  scenario::ManualClock clock;
  agg::AggregatorOptions aopts;
  aopts.shard = 0;
  aopts.first_node = 0;
  aopts.num_nodes = 2;
  aopts.num_resources = trace.num_resources();
  aopts.upstream.port = root.port();
  aopts.stale_after_ms = kMsPerSlot + kMsPerSlot / 2;
  aopts.dead_after_ms = 4 * kMsPerSlot + kMsPerSlot / 2;
  aopts.staleness_clock = clock.now_fn();
  aopts.status_every_slots = 0;  // censuses only when asked below
  agg::Aggregator aggregator(Socket::listen_tcp("127.0.0.1", 0), aopts);

  // Pump the root until the connector thread reports the handshake done —
  // polling the aggregator's own state here would race its writer thread.
  std::atomic<bool> hello_done{false};
  std::thread connector([&] {
    aggregator.connect_upstream();
    hello_done.store(true, std::memory_order_release);
  });
  while (!hello_done.load(std::memory_order_acquire)) root.pump_idle(10);
  connector.join();
  ASSERT_TRUE(aggregator.upstream_connected());

  auto agents =
      connect_fleet(aggregator.downstream(), 2, trace.num_resources());
  transport::CentralStore store(2, trace.num_resources());
  for (std::size_t t = 0; t < kSlots; ++t) {
    if (t == kQuitAfter) agents[1].reset();  // the quiet death
    for (std::size_t node = 0; node < 2; ++node) {
      if (agents[node]) agents[node]->observe(t, trace.measurement(node, t));
    }
    clock.advance_ms(kMsPerSlot);
    // Shard-side barrier with the same aging retries as the single-tier
    // collect_aging: a timed-out attempt forwards nothing, the clock ages
    // one slot, and the retry lets staleness unblock the barrier.
    bool forwarded = false;
    for (int attempt = 0; attempt < 16 && !forwarded; ++attempt) {
      forwarded = aggregator.forward_slot(t, 200);
      if (!forwarded) clock.advance_ms(kMsPerSlot);
    }
    ASSERT_TRUE(forwarded) << "shard slot " << t << " timed out";
    auto messages = root.collect_slot(t, 5000);
    ASSERT_TRUE(messages.has_value()) << "root slot " << t << " timed out";
    // Post-death slots deliver exactly the surviving node's measurement,
    // the same as the single-tier barrier skipping the silent node.
    EXPECT_EQ(messages->size(), t >= kQuitAfter ? 1u : 2u) << "slot " << t;
    for (const auto& m : *messages) store.apply(m);
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
  root.pump_idle(50);
  const std::string text = root_registry.render_text();
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

  auto agents = connect_fleet(controller, 1, trace.num_resources());
  for (std::size_t t = 0; t < kSlots; ++t) {
    agents[0]->observe(t, trace.measurement(0, t));
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

}  // namespace
}  // namespace resmon::net
