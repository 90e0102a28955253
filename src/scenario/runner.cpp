#include "scenario/runner.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "collect/fleet_collector.hpp"
#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "scenario/socket_fleet.hpp"
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

/// In-process mode: one in-process fleet over the spec's trace with its
/// faults and, with baseline_compare, a fault-free twin over the same
/// trace (same options, metrics kept out of the shared registry).
ScenarioResult run_in_process(const ScenarioSpec& spec,
                              obs::MetricsRegistry& registry) {
  const trace::InMemoryTrace trace =
      trace::generate(profile_for(spec), spec.trace_seed);
  const std::size_t steps = resolve_run_steps(spec, trace);
  sim::Driver driver(trace, pipeline_options(spec, &registry), spec.faults);
  obs::MetricsRegistry twin_registry;
  std::optional<sim::Driver> twin;
  if (spec.baseline_compare) {
    twin.emplace(trace, pipeline_options(spec, &twin_registry));
  }
  return run_lockstep(
      spec, registry, steps,
      {.pipeline = &driver.pipeline(),
       .truth = &trace,
       .twin = twin.has_value() ? &twin->pipeline() : nullptr,
       .advance =
           [&](std::size_t) {
             driver.step();
             if (twin.has_value()) twin->step();
           },
       .traffic =
           [&] {
             return Traffic{
                 .fraction = driver.collector().average_actual_frequency(),
                 .bytes = registry.value("resmon_collect_link_bytes_sent")
                              .value_or(0.0)};
           }});
}

// ---------------------------------------------------------------- socket mode

ScenarioResult run_socket(const ScenarioSpec& spec,
                          obs::MetricsRegistry& registry) {
  const trace::InMemoryTrace trace =
      trace::generate(profile_for(spec), spec.trace_seed);
  const std::size_t steps = resolve_run_steps(spec, trace);
  const std::size_t n = trace.num_nodes();
  const std::size_t d = trace.num_resources();

  SocketFleetOptions options{
      .shards = spec.shards,
      .policy = collect::make_policy_factory(spec.policy, spec.max_frequency),
      .stale_after_slots = spec.stale_after_slots,
      .dead_after_slots = spec.dead_after_slots,
      .metrics = &registry};
  SocketFleet fleet(n, d, options);
  core::MonitoringPipeline pipeline(n, d, pipeline_options(spec, &registry));

  // The bit-identity twin (two-tier scenarios only, validated at parse
  // time): a single-tier fleet over the same trace, same churn, its own
  // clock and registry, driven in lock-step so the divergence gauge
  // compares the two topologies sample by sample.
  obs::MetricsRegistry twin_registry;
  std::optional<SocketFleet> twin;
  std::optional<core::MonitoringPipeline> twin_pipeline;
  if (spec.baseline_compare) {
    options.shards = 0;
    options.metrics = &twin_registry;
    twin.emplace(n, d, options);
    twin_pipeline.emplace(n, d, pipeline_options(spec, &twin_registry));
  }

  const auto advance = [&](std::size_t t) {
    const auto step = [&](SocketFleet& f, core::MonitoringPipeline& p) {
      for (const ChurnEvent& ev : spec.churn) {  // in spec order
        if (ev.slot != t) continue;
        if (ev.restart) {
          f.restart(ev.node);
        } else {
          f.kill(ev.node);
        }
      }
      // Lock-step: every live agent writes its slot-t frame (measurement or
      // heartbeat) before the collector starts, so the first pump touches
      // every live node at the *current* manual time.
      f.observe(t, trace);
      p.step_external(f.collect(t));
    };
    step(fleet, pipeline);
    if (twin.has_value()) step(*twin, *twin_pipeline);
  };
  const auto traffic = [&] {
    return Traffic{
        .fraction = static_cast<double>(fleet.measurements_sent()) /
                    (static_cast<double>(n) * static_cast<double>(steps)),
        .bytes = static_cast<double>(fleet.bytes_sent())};
  };
  return run_lockstep(
      spec, registry, steps,
      {.pipeline = &pipeline,
       .truth = &trace,
       .twin = twin_pipeline.has_value() ? &*twin_pipeline : nullptr,
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
