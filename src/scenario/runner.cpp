#include "scenario/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "agg/aggregator.hpp"
#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "host/procfs.hpp"
#include "host/recording.hpp"
#include "host/sampler.hpp"
#include "host/source.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "scenario/manual_clock.hpp"
#include "sim/driver.hpp"
#include "sim/evaluate.hpp"
#include "trace/synthetic.hpp"

namespace resmon::scenario {

namespace {

/// Metric values keyed by the exposition series key (name + labels).
using SnapshotMap = std::map<std::string, double>;

SnapshotMap snapshot_map(const obs::MetricsRegistry& registry) {
  SnapshotMap out;
  for (const obs::Sample& s : registry.snapshot()) {
    out[s.name + s.labels] = s.value;
  }
  return out;
}

std::string op_name(Assertion::Op op) {
  switch (op) {
    case Assertion::Op::kEq:
      return "==";
    case Assertion::Op::kNe:
      return "!=";
    case Assertion::Op::kLe:
      return "<=";
    case Assertion::Op::kGe:
      return ">=";
    case Assertion::Op::kLt:
      return "<";
    case Assertion::Op::kGt:
      return ">";
  }
  return "?";
}

bool eval_op(Assertion::Op op, double actual, double threshold) {
  switch (op) {
    case Assertion::Op::kEq:
      return actual == threshold;
    case Assertion::Op::kNe:
      return actual != threshold;
    case Assertion::Op::kLe:
      return actual <= threshold;
    case Assertion::Op::kGe:
      return actual >= threshold;
    case Assertion::Op::kLt:
      return actual < threshold;
    case Assertion::Op::kGt:
      return actual > threshold;
  }
  return false;
}

std::string fmt(double v) {
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

/// Evaluate every assertion against the final snapshot and the sampled
/// series history.
void evaluate(const ScenarioSpec& spec, const SnapshotMap& final_values,
              const std::map<std::string, std::vector<double>>& series,
              ScenarioResult& result) {
  for (const Assertion& a : spec.assertions) {
    AssertionOutcome out;
    out.assertion = a;
    const std::string key = a.series_key();
    switch (a.kind) {
      case Assertion::Kind::kCompare: {
        out.expected = op_name(a.op) + " " + fmt(a.value);
        const auto it = final_values.find(key);
        if (it == final_values.end()) {
          out.found = false;
          break;
        }
        out.actual = it->second;
        out.passed = eval_op(a.op, out.actual, a.value);
        break;
      }
      case Assertion::Kind::kBand: {
        out.expected =
            "in " + fmt(a.value) + " +- " + fmt(a.tolerance);
        const auto it = final_values.find(key);
        if (it == final_values.end()) {
          out.found = false;
          break;
        }
        out.actual = it->second;
        out.passed = std::abs(out.actual - a.value) <= a.tolerance;
        break;
      }
      case Assertion::Kind::kMonotonic: {
        out.expected = a.increasing ? "nondecreasing" : "nonincreasing";
        if (a.slack > 0) out.expected += " (slack " + fmt(a.slack) + ")";
        const auto it = series.find(key);
        if (it == series.end() || it->second.empty()) {
          out.found = false;
          break;
        }
        const std::vector<double>& v = it->second;
        out.passed = true;
        out.actual = v.back();
        for (std::size_t i = 1; i < v.size(); ++i) {
          const bool ok = a.increasing ? v[i] >= v[i - 1] - a.slack
                                       : v[i] <= v[i - 1] + a.slack;
          if (!ok) {
            out.passed = false;
            out.actual = v[i];
            out.expected += " (violated at sample " + std::to_string(i) +
                            ", previous " + fmt(v[i - 1]) + ")";
            break;
          }
        }
        break;
      }
    }
    if (!out.found) out.passed = false;
    if (!out.passed) result.passed = false;
    result.outcomes.push_back(std::move(out));
  }
}

trace::SyntheticProfile profile_for(const ScenarioSpec& spec) {
  trace::SyntheticProfile profile = trace::profile_by_name(spec.profile);
  if (spec.nodes != 0) profile.num_nodes = spec.nodes;
  if (spec.steps != 0) profile.num_steps = spec.steps;
  for (const auto& [key, value] : spec.profile_overrides) {
    apply_profile_override(profile, key, value,
                           "scenario '" + spec.name + "'");
  }
  return profile;
}

core::PipelineOptions pipeline_options(const ScenarioSpec& spec,
                                       obs::MetricsRegistry* registry) {
  core::PipelineOptions opt;
  opt.policy = spec.policy;
  opt.max_frequency = spec.max_frequency;
  opt.num_clusters = spec.num_clusters;
  opt.temporal_window = spec.temporal_window;
  opt.forecaster = spec.model;
  opt.schedule = {.initial_steps = spec.initial_steps,
                  .retrain_interval = spec.retrain_interval};
  opt.seed = spec.pipeline_seed;
  opt.num_threads = spec.threads;
  opt.metrics = registry;
  return opt;
}

std::size_t resolve_run_steps(const ScenarioSpec& spec,
                              const trace::Trace& trace) {
  const std::size_t steps =
      spec.run_steps == 0 ? trace.num_steps() : spec.run_steps;
  RESMON_REQUIRE(steps <= trace.num_steps(),
                 "scenario run steps exceed the trace length");
  RESMON_REQUIRE(steps > 0, "scenario would run zero steps");
  return steps;
}

/// Uplink traffic a mode's fleet paid for, read once its loop is done.
struct Traffic {
  double fraction = 0.0;  ///< measurements per node-slot
  double bytes = 0.0;     ///< total uplink bytes
};

/// Export the resmon_scenario_* result gauges, scoring against `truth`.
void publish(const ScenarioSpec& spec, obs::MetricsRegistry& registry,
             const core::MonitoringPipeline& pipeline,
             const trace::Trace& truth, std::size_t steps_run,
             const Traffic& traffic,
             const std::vector<core::RmseAccumulator>& rmse,
             double divergence) {
  register_result_metrics(registry, spec.horizons);
  registry.gauge("resmon_scenario_steps", "")
      .set(static_cast<double>(steps_run));
  registry.gauge("resmon_scenario_traffic_fraction", "")
      .set(traffic.fraction);
  registry.gauge("resmon_scenario_bytes_sent", "").set(traffic.bytes);
  registry.gauge("resmon_scenario_forecast_divergence", "").set(divergence);
  const std::size_t last = pipeline.current_step() - 1;
  const std::size_t limit = truth.num_steps();
  for (std::size_t i = 0; i < spec.horizons.size(); ++i) {
    const std::size_t h = spec.horizons[i];
    const obs::Labels labels = {{"h", std::to_string(h)}};
    registry.gauge("resmon_scenario_rmse", "", labels).set(rmse[i].value());
    // Aggregate |mean forecast - mean truth| at the end of the run: the
    // capacity-planning view (how much total load h slots ahead).
    if (last + h < limit) {
      const Matrix forecast = pipeline.forecast_all(h);
      double fsum = 0.0;
      double tsum = 0.0;
      for (std::size_t n = 0; n < forecast.rows(); ++n) {
        for (std::size_t r = 0; r < forecast.cols(); ++r) {
          fsum += forecast(n, r);
          tsum += truth.value(n, last + h, r);
        }
      }
      const double cells =
          static_cast<double>(forecast.rows() * forecast.cols());
      registry.gauge("resmon_scenario_aggregate_abs_error", "", labels)
          .set(std::abs(fsum - tsum) / cells);
    }
  }
}

/// Max elementwise |a - b|; infinity on shape mismatch.
double max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    }
  }
  return worst;
}

/// What differs between the scenario modes, as the lockstep driver sees
/// it: the pipeline it scores and the trace it scores against, an optional
/// twin for the divergence gauge, how one slot advances both, and the
/// fleet's traffic once the loop ends.
struct Lockstep {
  const core::MonitoringPipeline* pipeline = nullptr;
  const trace::Trace* truth = nullptr;
  const core::MonitoringPipeline* twin = nullptr;  ///< nullptr = no twin
  std::function<void(std::size_t)> advance;
  std::function<Traffic()> traffic;
};

/// The one driver loop every mode runs through. Per slot: advance, score
/// every horizon once the models are warm, and every sample_every slots
/// sample the registry and the twin divergence. Then publish the result
/// gauges and grade the assertions.
ScenarioResult run_lockstep(const ScenarioSpec& spec,
                            obs::MetricsRegistry& registry, std::size_t steps,
                            const Lockstep& mode) {
  const core::MonitoringPipeline& pipeline = *mode.pipeline;
  const trace::Trace& truth = *mode.truth;
  const std::size_t limit = truth.num_steps();
  std::vector<core::RmseAccumulator> rmse(spec.horizons.size());
  std::map<std::string, std::vector<double>> series;
  const auto sample = [&] {
    for (const auto& [key, value] : snapshot_map(registry)) {
      series[key].push_back(value);
    }
  };
  double divergence = 0.0;
  const auto diverge = [&](std::size_t h) {
    divergence = std::max(divergence, max_abs_diff(pipeline.forecast_all(h),
                                                   mode.twin->forecast_all(h)));
  };

  for (std::size_t t = 0; t < steps; ++t) {
    mode.advance(t);
    if (t + 1 >= spec.initial_steps) {  // models past their warm-up
      for (std::size_t i = 0; i < spec.horizons.size(); ++i) {
        const std::size_t h = spec.horizons[i];
        if (t + h < limit) rmse[i].add(sim::rmse_at(pipeline, truth, h));
      }
    }
    if ((t + 1) % spec.sample_every != 0 && t + 1 != steps) continue;
    sample();
    if (mode.twin == nullptr) continue;
    // h = 0 compares the stored central view, h >= 1 the forecasts.
    diverge(0);
    for (const std::size_t h : spec.horizons) {
      if (t + h < limit) diverge(h);
    }
  }

  publish(spec, registry, pipeline, truth, steps, mode.traffic(), rmse,
          divergence);
  ScenarioResult result;
  result.name = spec.name;
  result.steps_run = steps;
  // One final sample so monotonic assertions see the published gauges too.
  sample();
  evaluate(spec, snapshot_map(registry), series, result);
  return result;
}

/// In-process and host modes: one in-process fleet over `trace` with the
/// spec's faults and, when `twin_trace` is set, a fault-free twin over it
/// (same options, metrics kept out of the shared registry).
ScenarioResult run_pipelines(const ScenarioSpec& spec,
                             obs::MetricsRegistry& registry,
                             const trace::Trace& trace,
                             const trace::Trace* twin_trace) {
  const std::size_t steps = resolve_run_steps(spec, trace);
  sim::Driver driver(trace, pipeline_options(spec, &registry), spec.faults);
  obs::MetricsRegistry twin_registry;
  std::unique_ptr<sim::Driver> twin;
  if (twin_trace != nullptr) {
    twin = std::make_unique<sim::Driver>(
        *twin_trace, pipeline_options(spec, &twin_registry));
  }
  return run_lockstep(
      spec, registry, steps,
      {.pipeline = &driver.pipeline(),
       .truth = &trace,
       .twin = twin != nullptr ? &twin->pipeline() : nullptr,
       .advance =
           [&](std::size_t) {
             driver.step();
             if (twin != nullptr) twin->step();
           },
       .traffic =
           [&] {
             return Traffic{
                 .fraction = driver.collector().average_actual_frequency(),
                 .bytes = registry.value("resmon_collect_link_bytes_sent")
                              .value_or(0.0)};
           }});
}

ScenarioResult run_in_process(const ScenarioSpec& spec,
                              obs::MetricsRegistry& registry) {
  const trace::InMemoryTrace trace =
      trace::generate(profile_for(spec), spec.trace_seed);
  return run_pipelines(spec, registry, trace,
                       spec.baseline_compare ? &trace : nullptr);
}

// ------------------------------------------------------------------ host mode

/// Burn a little CPU between samples so the recorded utilization series is
/// not identically zero; the volatile sink keeps the loop alive under -O2.
void busy_spin(std::size_t iters) {
  volatile double sink = 0.0;
  for (std::size_t i = 0; i < iters; ++i) {
    sink = sink + static_cast<double>(i % 7) * 1e-9;
  }
}

trace::InMemoryTrace trace_from_rows(
    const std::vector<std::vector<double>>& rows) {
  trace::InMemoryTrace t(1, rows.size(), rows.front().size());
  for (std::size_t step = 0; step < rows.size(); ++step) {
    for (std::size_t r = 0; r < rows[step].size(); ++r) {
      t.set_value(0, step, r, rows[step][r]);
    }
  }
  return t;
}

/// Host mode: sample this very process through the procfs backend while
/// recording, replay the recording through a second pipeline, and publish
/// the max forecast divergence between the two — which must be 0 whatever
/// the live host happened to be doing, because both pipelines consume the
/// same recorded bytes. This is the determinism contract of DESIGN.md
/// "Host collection", enforced as a scenario assertion.
ScenarioResult run_host(const ScenarioSpec& spec,
                        obs::MetricsRegistry& registry) {
  // Record phase: live procfs reads, teed into an in-memory recording.
  host::DirProcfs procfs(spec.host_procfs_root);
  host::HostSamplerOptions hopts;
  hopts.metrics = &registry;
  host::HostSampler sampler(procfs, hopts);
  std::ostringstream recorded;
  host::RecordingWriter writer(recorded, spec.host_interval_ms,
                               host::HostSampler::kNumResources);
  host::ProcfsSamplerSource::Options sopts;
  sopts.interval_ms = spec.host_interval_ms;
  sopts.recorder = &writer;
  host::ProcfsSamplerSource source(sampler, sopts);
  std::vector<std::vector<double>> rows;
  rows.reserve(spec.host_samples);
  for (std::size_t t = 0; t < spec.host_samples; ++t) {
    rows.push_back(source.measurement(t));
    busy_spin(spec.host_busy_iters);
  }
  writer.finish();

  // Replay phase: parse the recording back exactly like --source replay.
  std::istringstream replayed(recorded.str());
  const host::Recording recording =
      host::read_recording(replayed, "<recording>");
  RESMON_REQUIRE(recording.rows == rows,
                 "scenario: replayed rows differ from the recorded samples");

  // The replay twin is fault-free like the live pipeline: [host] rejects
  // [faults] at parse time.
  const trace::InMemoryTrace live_trace = trace_from_rows(rows);
  const trace::InMemoryTrace replay_trace = trace_from_rows(recording.rows);
  return run_pipelines(spec, registry, live_trace, &replay_trace);
}

// ---------------------------------------------------------------- socket mode

/// One churn-driven agent slot: the Agent object (absent while killed) and
/// the scheduled events for this node.
struct AgentSlot {
  std::unique_ptr<net::Agent> agent;
};

std::unique_ptr<net::Agent> make_agent(const ScenarioSpec& spec,
                                       std::uint16_t port, std::size_t node,
                                       std::size_t num_resources) {
  net::AgentOptions opt;
  opt.upstream.port = port;
  opt.node = static_cast<std::uint32_t>(node);
  opt.num_resources = static_cast<std::uint32_t>(num_resources);
  return std::make_unique<net::Agent>(
      opt, collect::make_policy_factory(spec.policy, spec.max_frequency)());
}

/// Run a blocking `connect` on a helper thread while this thread pumps the
/// `controller` that must ack its hello; rethrows any connect failure on the
/// caller. The loop polls only the connector's done flag — never the
/// connecting object's own state, which the helper thread is still writing.
void connect_pumping(net::Controller& controller,
                     const std::function<void()>& connect) {
  std::exception_ptr failure;
  std::atomic<bool> done{false};
  std::thread connector([&] {
    try {
      connect();
      // Captured for the deferred std::rethrow_exception after join().
      // resmon-lint-allow(catch-all-swallow): rethrown on the caller
    } catch (...) {
      failure = std::current_exception();
    }
    done.store(true, std::memory_order_release);
  });
  while (!done.load(std::memory_order_acquire)) controller.pump_idle(10);
  connector.join();
  if (failure != nullptr) std::rethrow_exception(failure);
}

/// One socket-mode fleet: agents -> controller (single tier) or agents ->
/// aggregators -> root (two tiers). baseline_compare in two-tier mode runs
/// a second, single-tier fleet of these in lock-step over the same trace —
/// the bit-identity twin. Not movable: the ManualClock's now_fn closures
/// capture `this`-adjacent state, so the fleet is built in place.
struct SocketFleet {
  ManualClock clock;
  std::unique_ptr<net::Controller> root;
  /// Private registries for the aggregators' *internal* controllers: their
  /// per-node resmon_net_* series would collide with the root's otherwise.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> agg_net_registries;
  std::vector<std::unique_ptr<agg::Aggregator>> aggs;
  std::vector<std::size_t> owner;  ///< node -> shard index (two-tier)
  std::vector<AgentSlot> agents;
  std::unique_ptr<core::MonitoringPipeline> pipeline;
  std::uint64_t agent_bytes = 0;
  std::uint64_t agent_measurements = 0;

  bool two_tier() const { return !aggs.empty(); }
  /// The controller a node's agent speaks to: its shard's downstream side
  /// in two-tier mode, the root otherwise.
  net::Controller& downstream_of(std::size_t node) {
    return two_tier() ? aggs[owner[node]]->downstream() : *root;
  }

  /// Keep traffic totals across kills: the Agent object dies with them.
  void retire(AgentSlot& slot) {
    agent_bytes += slot.agent->bytes_sent();
    agent_measurements += slot.agent->measurements_sent();
    slot.agent.reset();
  }
};

/// Build one fleet over `trace` and complete every handshake: shard hellos
/// first (two-tier), then the whole agent fleet in parallel.
std::unique_ptr<SocketFleet> make_socket_fleet(const ScenarioSpec& spec,
                                               const trace::InMemoryTrace& trace,
                                               obs::MetricsRegistry& registry,
                                               bool two_tier) {
  const std::size_t n = trace.num_nodes();
  const int msps = static_cast<int>(spec.ms_per_slot);
  auto fleet = std::make_unique<SocketFleet>();

  // The +msps/2 offset keeps thresholds off exact slot multiples: a live
  // node's silence peaks at whole slots, so it can never tie the limit.
  const int stale_after_ms =
      static_cast<int>(spec.stale_after_slots) * msps + msps / 2;
  const int dead_after_ms =
      spec.dead_after_slots == 0
          ? 0
          : static_cast<int>(spec.dead_after_slots) * msps + msps / 2;

  net::ControllerOptions copt;
  copt.num_nodes = n;
  copt.num_resources = trace.num_resources();
  copt.metrics = &registry;
  if (two_tier) {
    // The shard tier owns per-node staleness; the root's degraded-slot
    // accounting comes from the summaries' degraded counts alone.
    copt.num_shards = spec.shards;
  } else {
    copt.stale_after_ms = stale_after_ms;
    copt.dead_after_ms = dead_after_ms;
    copt.staleness_clock = fleet->clock.now_fn();
  }
  fleet->root = std::make_unique<net::Controller>(
      net::Socket::listen_tcp("127.0.0.1", 0), copt);

  if (two_tier) {
    RESMON_REQUIRE(spec.shards <= n,
                   "scenario: more shards than nodes in [topology]");
    fleet->owner.resize(n);
    for (std::size_t shard = 0; shard < spec.shards; ++shard) {
      const agg::ShardRange range = agg::shard_range(n, spec.shards, shard);
      agg::AggregatorOptions aopt;
      aopt.shard = shard;
      aopt.first_node = range.first_node;
      aopt.num_nodes = range.num_nodes;
      aopt.num_resources = trace.num_resources();
      aopt.upstream.port = fleet->root->port();
      aopt.stale_after_ms = stale_after_ms;
      aopt.dead_after_ms = dead_after_ms;
      aopt.staleness_clock = fleet->clock.now_fn();
      aopt.metrics = &registry;  // resmon_agg_* series are shard-labeled
      fleet->agg_net_registries.push_back(
          std::make_unique<obs::MetricsRegistry>());
      aopt.net_metrics = fleet->agg_net_registries.back().get();
      fleet->aggs.push_back(std::make_unique<agg::Aggregator>(
          net::Socket::listen_tcp("127.0.0.1", 0), aopt));
      for (std::size_t node = range.first_node;
           node < range.first_node + range.num_nodes; ++node) {
        fleet->owner[node] = shard;
      }
      // The shard hello blocks until the root pumps the ack.
      agg::Aggregator& aggregator = *fleet->aggs.back();
      connect_pumping(*fleet->root, [&] { aggregator.connect_upstream(); });
    }
    RESMON_REQUIRE(fleet->root->wait_for_shards(spec.shards, 10000),
                   "scenario: shard hellos did not finish");
  }

  core::PipelineOptions popt = pipeline_options(spec, &registry);
  fleet->pipeline = std::make_unique<core::MonitoringPipeline>(
      n, trace.num_resources(), popt);

  // Connect the whole fleet: agents block on their hello/ack handshake in
  // helper threads while the main thread pumps their collectors.
  fleet->agents.resize(n);
  {
    std::vector<std::exception_ptr> failures(n);
    std::vector<std::thread> connectors;
    connectors.reserve(n);
    for (std::size_t node = 0; node < n; ++node) {
      fleet->agents[node].agent = make_agent(
          spec, fleet->downstream_of(node).port(), node,
          trace.num_resources());
      connectors.emplace_back([&fleet, &failures, node] {
        try {
          fleet->agents[node].agent->connect();
          // resmon-lint-allow(catch-all-swallow): rethrown after the joins
        } catch (...) {
          failures[node] = std::current_exception();
        }
      });
    }
    bool all_in = true;
    if (two_tier) {
      for (std::size_t shard = 0; shard < spec.shards; ++shard) {
        const agg::ShardRange range =
            agg::shard_range(n, spec.shards, shard);
        all_in = fleet->aggs[shard]->wait_for_agents(range.num_nodes, 10000)
                 && all_in;
      }
    } else {
      all_in = fleet->root->wait_for_agents(n, 10000);
    }
    for (std::thread& th : connectors) th.join();
    for (const std::exception_ptr& failure : failures) {
      if (failure != nullptr) std::rethrow_exception(failure);
    }
    RESMON_REQUIRE(all_in, "scenario: fleet did not finish its handshakes");
  }
  return fleet;
}

/// Apply one slot's churn events to a fleet. A restarted agent reconnects
/// to its original collector (the shard's downstream side in two-tier
/// mode), pumping it until the handshake completes and the node is LIVE.
void apply_churn(const ScenarioSpec& spec, SocketFleet& fleet,
                 const std::vector<ChurnEvent>& events,
                 std::size_t num_resources) {
  for (const ChurnEvent& ev : events) {
    RESMON_REQUIRE(ev.node < fleet.agents.size(),
                   "scenario: churn node out of range");
    AgentSlot& slot = fleet.agents[ev.node];
    if (!ev.restart) {
      RESMON_REQUIRE(slot.agent != nullptr,
                     "scenario: kill of an already-dead node");
      fleet.retire(slot);
    } else {
      RESMON_REQUIRE(slot.agent == nullptr,
                     "scenario: restart of a live node");
      net::Controller& downstream = fleet.downstream_of(ev.node);
      slot.agent =
          make_agent(spec, downstream.port(), ev.node, num_resources);
      connect_pumping(downstream, [&] { slot.agent->connect(); });
      RESMON_REQUIRE(downstream.node_state(ev.node) == net::NodeState::kLive,
                     "scenario: node did not rejoin after restart");
    }
  }
}

/// Complete the fleet's slot-t barrier. The barrier waits for LIVE nodes
/// only: while a freshly-killed node is still LIVE it cannot complete, so
/// each timed-out attempt advances the manual clock one slot until the
/// staleness machine notices the silence and degrades the node. In
/// two-tier mode the aging happens per shard; the root then consumes one
/// summary per shard without a staleness machine of its own.
std::vector<transport::MeasurementMessage> collect_fleet_slot(
    const ScenarioSpec& spec, SocketFleet& fleet, std::size_t t) {
  const int msps = static_cast<int>(spec.ms_per_slot);
  const std::size_t max_attempts = spec.stale_after_slots + 8;
  if (fleet.two_tier()) {
    for (auto& aggregator : fleet.aggs) {
      bool forwarded = false;
      for (std::size_t attempt = 0; attempt < max_attempts && !forwarded;
           ++attempt) {
        forwarded = aggregator->forward_slot(t, 200);
        if (!forwarded) fleet.clock.advance_ms(msps);
      }
      RESMON_REQUIRE(forwarded,
                     "scenario: shard barrier stuck past the staleness "
                     "policy");
    }
    auto messages = fleet.root->collect_slot(t, 10000);
    RESMON_REQUIRE(messages.has_value(),
                   "scenario: root did not receive every shard summary");
    return *messages;
  }
  std::optional<std::vector<transport::MeasurementMessage>> messages;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    messages = fleet.root->collect_slot(t, 200);
    if (messages.has_value()) break;
    fleet.clock.advance_ms(msps);
  }
  RESMON_REQUIRE(messages.has_value(),
                 "scenario: slot barrier stuck past the staleness policy");
  return *messages;
}

ScenarioResult run_socket(const ScenarioSpec& spec,
                          obs::MetricsRegistry& registry) {
  const trace::InMemoryTrace trace =
      trace::generate(profile_for(spec), spec.trace_seed);
  const std::size_t steps = resolve_run_steps(spec, trace);
  const std::size_t n = trace.num_nodes();
  const int msps = static_cast<int>(spec.ms_per_slot);

  auto fleet = make_socket_fleet(spec, trace, registry, spec.tiers == 2);

  // The bit-identity twin (two-tier scenarios only, validated at parse
  // time): a single-tier fleet over the same trace, same churn, its own
  // clock and registry, driven in lock-step so the divergence gauge
  // compares the two topologies sample by sample.
  obs::MetricsRegistry twin_registry;
  std::unique_ptr<SocketFleet> twin;
  if (spec.baseline_compare) {
    twin = make_socket_fleet(spec, trace, twin_registry, /*two_tier=*/false);
  }

  // Index churn events by slot for the lock-step loop.
  std::map<std::size_t, std::vector<ChurnEvent>> churn_at;
  for (const ChurnEvent& ev : spec.churn) churn_at[ev.slot].push_back(ev);

  const auto advance = [&](std::size_t t) {
    const auto churn = churn_at.find(t);
    for (SocketFleet* f : {fleet.get(), twin.get()}) {
      if (f == nullptr) continue;
      if (churn != churn_at.end()) {
        apply_churn(spec, *f, churn->second, trace.num_resources());
      }
      // Lock-step: every live agent writes its slot-t frame (measurement or
      // heartbeat) before the collector starts, so the first pump below
      // touches every live node at the *current* manual time.
      for (std::size_t node = 0; node < n; ++node) {
        if (f->agents[node].agent == nullptr) continue;
        f->agents[node].agent->observe(t, trace.measurement(node, t));
      }
      f->clock.advance_ms(msps);
      f->pipeline->step_external(collect_fleet_slot(spec, *f, t));
    }
  };
  const auto traffic = [&] {
    for (SocketFleet* f : {fleet.get(), twin.get()}) {
      if (f == nullptr) continue;
      for (AgentSlot& slot : f->agents) {
        if (slot.agent != nullptr) f->retire(slot);
      }
    }
    return Traffic{.fraction = static_cast<double>(fleet->agent_measurements) /
                               (static_cast<double>(n) *
                                static_cast<double>(steps)),
                   .bytes = static_cast<double>(fleet->agent_bytes)};
  };
  return run_lockstep(
      spec, registry, steps,
      {.pipeline = fleet->pipeline.get(),
       .truth = &trace,
       .twin = twin != nullptr ? twin->pipeline.get() : nullptr,
       .advance = advance,
       .traffic = traffic});
}

}  // namespace

const AssertionOutcome* ScenarioResult::first_failure() const {
  for (const AssertionOutcome& out : outcomes) {
    if (!out.passed) return &out;
  }
  return nullptr;
}

void register_result_metrics(obs::MetricsRegistry& registry,
                             const std::vector<std::size_t>& horizons) {
  registry.gauge("resmon_scenario_steps",
                 "Time slots the scenario actually executed");
  registry.gauge("resmon_scenario_traffic_fraction",
                 "Measurements transmitted per node-slot (actual frequency)");
  registry.gauge("resmon_scenario_bytes_sent",
                 "Total uplink bytes the fleet paid for during the scenario");
  registry.gauge(
      "resmon_scenario_forecast_divergence",
      "Max |difference| between the faulted run and its fault-free twin "
      "(stored values and forecasts; 0 = bit-identical)");
  for (const std::size_t h : horizons) {
    const obs::Labels labels = {{"h", std::to_string(h)}};
    registry.gauge("resmon_scenario_rmse",
                   "Time-averaged forecast RMSE (eq. (4)) at horizon h",
                   labels);
    registry.gauge(
        "resmon_scenario_aggregate_abs_error",
        "Capacity-planning error: |mean forecast - mean truth| per cell at "
        "horizon h, scored at the end of the run",
        labels);
  }
}

ScenarioResult run(const ScenarioSpec& spec, obs::MetricsRegistry& registry) {
  if (spec.host_mode) return run_host(spec, registry);
  if (spec.socket_mode) return run_socket(spec, registry);
  return run_in_process(spec, registry);
}

bool print_report(const ScenarioResult& result, std::ostream& out,
                  bool verbose) {
  if (verbose) {
    for (const AssertionOutcome& o : result.outcomes) {
      out << "  [" << (o.passed ? "PASS" : "FAIL") << "] "
          << o.assertion.raw << '\n';
    }
  }
  if (result.passed) {
    out << "PASS " << result.name << " (" << result.outcomes.size()
        << " assertions, " << result.steps_run << " steps)\n";
    return true;
  }
  const AssertionOutcome* first = result.first_failure();
  out << "FAIL " << result.name << ": " << first->assertion.series_key()
      << " expected " << first->expected << ", actual ";
  if (first->found) {
    out << first->actual;
  } else {
    out << "<metric not found>";
  }
  out << '\n';
  return false;
}

}  // namespace resmon::scenario
