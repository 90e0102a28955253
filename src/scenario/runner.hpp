// Scenario runner: executes one parsed ScenarioSpec end to end and grades
// its [assert] section against the metrics registry.
//
// Two execution modes, selected by the spec, both deterministic and both
// driven slot by slot through one lock-step loop:
//   - in-process (default): trace -> sim::Driver, with the optional
//     faultnet spec on the in-process uplink and an optional fault-free
//     twin run for bit-identity divergence checks;
//   - socket mode ([controller] present): a scenario::SocketFleet over
//     loopback TCP, one net::Agent per node in front of a net::Controller
//     (or of [topology] aggregators and a root), driven in deterministic
//     lock-step from the calling thread, the staleness machine aged by a
//     ManualClock so LIVE -> STALE -> DEAD churn replays identically on any
//     machine; a two-tier pack may run a single-tier twin fleet too.
//
// Derived results are exported as resmon_scenario_* gauges into the same
// registry, so assertions address pipeline, net, collect and scenario
// series uniformly (docs/METRICS.md "Scenario results").
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/scenario_spec.hpp"

namespace resmon::scenario {

/// Verdict of one assertion after the run.
struct AssertionOutcome {
  Assertion assertion;
  bool passed = false;
  double actual = 0.0;    ///< final (or first violating) observed value
  bool found = true;      ///< false: the metric was not in the registry
  std::string expected;   ///< human rendering of the expectation
};

/// Everything one scenario run produced.
struct ScenarioResult {
  std::string name;
  bool passed = true;
  std::size_t steps_run = 0;
  std::vector<AssertionOutcome> outcomes;

  /// The first violated assertion, or nullptr when everything passed.
  const AssertionOutcome* first_failure() const;
};

/// Register every resmon_scenario_* result family (with the given horizon
/// labels) in `registry`. run() calls this itself; test_docs calls it to
/// keep docs/METRICS.md's catalogue drift-checked.
void register_result_metrics(obs::MetricsRegistry& registry,
                             const std::vector<std::size_t>& horizons = {1});

/// Execute the scenario and evaluate its assertions. All series produced
/// by the run (pipeline, collect, net, scenario results) land in
/// `registry`; the caller owns it and can render it afterwards. Throws
/// resmon::Error on infrastructure failures (bad spec fields, socket
/// setup, a stuck slot barrier) — assertion violations are NOT exceptions,
/// they are reported in the result.
ScenarioResult run(const ScenarioSpec& spec, obs::MetricsRegistry& registry);

/// Render a pass/fail report: one line per assertion, and for the first
/// violated one the metric name, expected and actual values. Returns
/// result.passed for convenience.
bool print_report(const ScenarioResult& result, std::ostream& out,
                  bool verbose);

}  // namespace resmon::scenario
