// ScenarioSpec: the declarative scenario-pack format (.scn files).
//
// A scenario names everything one end-to-end run of the monitoring system
// needs — a synthetic trace profile, the pipeline/policy options, an
// optional faultnet schedule, controller staleness knobs with a churn
// timetable — plus a list of assertions evaluated against the obs metrics
// registry after the run. Packs under scenarios/ are the repo's enforced
// reproductions of the paper's experiments: `resmon scenario run` and the
// test_scenarios ctest driver both execute them through scenario::run().
//
// File grammar (INI-style; '#' starts a comment, blank lines ignored):
//
//   name = spot-churn                 # top-level keys before any section
//   description = free text
//
//   [trace]
//   profile = google                  # alibaba | bitbrains | google | sensors
//   nodes = 20                        # override the profile's node count
//   steps = 300                       # override the profile's step count
//   seed = 7
//   spike_probability = 0.05          # enumerated profile overrides; see
//   ...                               # apply_profile_override()
//
//   [pipeline]
//   policy = adaptive                 # adaptive | uniform | always | deadband
//   b = 0.3                           # transmission budget B
//   k = 3                             # number of clusters K
//   model = arima                     # hold | arima | auto-arima | lstm
//   initial = 120                     # retrain schedule: warm-up steps
//   retrain = 96                      # retrain schedule: interval
//   temporal_window = 1
//   threads = 1
//   seed = 7
//
//   [faults]                          # optional; faultnet grammar verbatim
//   spec = dup=0.4;reorder=0.6;seed=13
//
//   [controller]                      # optional; presence selects the real
//   stale_after_slots = 3             # TCP controller + staleness machine
//   dead_after_slots = 8              # (socket mode); absent = in-process
//                                     # (a slot is 100 manual-clock ms)
//
//   [topology]                        # optional; socket mode only
//   shards = 2                        # N >= 1 = agents -> N aggregators ->
//                                     # root; 0 = agents -> root (default)
//
//   [churn]                           # socket mode only; repeatable keys
//   kill = 2:20                       # node 2 dies at slot 20
//   restart = 2:50                    # node 2 rejoins at slot 50
//
//   [run]
//   steps = 300                       # slots to execute (<= trace steps)
//   horizons = 1,6                    # forecast horizons to score
//   sample_every = 10                 # metric sampling period (monotonicity)
//   baseline_compare = true           # also run a fault-free twin and export
//                                     # resmon_scenario_forecast_divergence
//
//   [assert]                          # one assertion per line:
//   resmon_scenario_steps == 300                    # metric <op> value
//   resmon_scenario_rmse{h="1"} in 0.05 +- 0.02     # tolerance band
//   resmon_net_frames_total nondecreasing           # over sampled series
//   resmon_scenario_rmse{h="1"} nonincreasing slack 0.01
//
// Assertion ops: == != <= >= < > (compared on the metric's final value),
// `in CENTER +- TOL` (band on the final value), and
// `nondecreasing`/`nonincreasing` with an optional `slack S`, checked over
// the values sampled every [run].sample_every slots. Metric references use
// the exposition spelling: family name plus optional {key="value",...}
// labels (quotes optional in .scn files); histogram series are addressed
// via their _sum/_count expansions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "collect/fleet_collector.hpp"
#include "faultnet/fault_spec.hpp"
#include "forecast/forecaster.hpp"
#include "obs/metrics.hpp"
#include "trace/synthetic.hpp"

namespace resmon::scenario {

/// One expected-metric assertion from the [assert] section.
struct Assertion {
  enum class Kind {
    kCompare,    ///< final value <op> threshold
    kBand,       ///< |final value - center| <= tolerance
    kMonotonic,  ///< sampled series nondecreasing / nonincreasing
  };
  enum class Op { kEq, kNe, kLe, kGe, kLt, kGt };

  Kind kind = Kind::kCompare;
  std::string metric;  ///< family name, e.g. "resmon_scenario_rmse"
  obs::Labels labels;  ///< label set of the addressed series (may be empty)
  Op op = Op::kEq;     ///< kCompare only
  double value = 0.0;  ///< kCompare: threshold; kBand: center
  double tolerance = 0.0;   ///< kBand only
  bool increasing = true;   ///< kMonotonic: nondecreasing (else nonincr.)
  double slack = 0.0;       ///< kMonotonic: tolerated counter-direction step
  std::string raw;          ///< original line, for failure messages

  /// The exposition-style series key this assertion addresses,
  /// e.g. `resmon_scenario_rmse{h="1"}`.
  std::string series_key() const;
};

/// One scheduled churn event (socket mode): the node's agent is destroyed
/// (kill) or reconstructed and reconnected (restart) at the given slot.
struct ChurnEvent {
  std::size_t node = 0;
  std::size_t slot = 0;
  bool restart = false;  ///< false = kill
};

/// A parsed scenario file. parse() fills defaults documented in the
/// grammar above and validates cross-field consistency.
struct ScenarioSpec {
  std::string name;
  std::string description;

  // [trace]
  std::string profile = "google";
  std::size_t nodes = 0;  ///< 0 = profile default
  std::size_t steps = 0;  ///< 0 = profile default
  std::uint64_t trace_seed = 1;
  /// Enumerated (key, value) profile overrides, applied in file order.
  std::vector<std::pair<std::string, double>> profile_overrides;

  // [pipeline]
  collect::PolicyKind policy = collect::PolicyKind::kAdaptive;
  double max_frequency = 0.3;
  std::size_t num_clusters = 3;
  forecast::ForecasterKind model = forecast::ForecasterKind::kSampleHold;
  std::size_t initial_steps = 100;
  std::size_t retrain_interval = 96;
  std::size_t temporal_window = 1;
  std::size_t threads = 1;
  std::uint64_t pipeline_seed = 1;

  // [faults]
  faultnet::FaultSpec faults;

  // [controller] — socket mode iff present.
  bool socket_mode = false;
  std::size_t stale_after_slots = 0;
  std::size_t dead_after_slots = 0;

  // [topology] — optional; shards >= 1 inserts that many aggregators
  // between the agents and the root (socket mode only); 0 = one tier.
  std::size_t shards = 0;

  // [churn]
  std::vector<ChurnEvent> churn;

  // [run]
  std::size_t run_steps = 0;  ///< 0 = the whole trace
  std::vector<std::size_t> horizons = {1};
  std::size_t sample_every = 10;
  bool baseline_compare = false;

  std::vector<Assertion> assertions;

  /// Parse the .scn grammar. Throws InvalidArgument naming the offending
  /// line on any syntax error, unknown section/key, or bad value.
  static ScenarioSpec parse(std::istream& in, const std::string& origin);
  static ScenarioSpec parse_string(const std::string& text,
                                   const std::string& origin = "<string>");
  static ScenarioSpec parse_file(const std::string& path);
};

/// Apply one enumerated [trace] override to a profile; throws
/// InvalidArgument for keys that are not overridable. Exposed for the
/// drift test that keeps the .scn grammar and SyntheticProfile in sync.
void apply_profile_override(trace::SyntheticProfile& profile,
                            const std::string& key, double value,
                            const std::string& context);

}  // namespace resmon::scenario
