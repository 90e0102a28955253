// Scenario-pack tests: the .scn grammar, the assertion evaluator, the
// runner's determinism, and — the regression gate — every shipped pack
// under scenarios/ must pass exactly as `resmon scenario run` would run it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/metrics.hpp"
#include "core/pipeline.hpp"
#include "golden_fixture.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario_spec.hpp"
#include "sim/driver.hpp"
#include "sim/evaluate.hpp"
#include "trace/synthetic.hpp"

namespace resmon::scenario {
namespace {

// A fast in-process scenario shared by the runner tests: 8 nodes, 120
// steps, sample-hold forecasts. Tests append their own [assert] lines.
constexpr char kBaseSpec[] = R"(
name = unit
[trace]
profile = google
nodes = 8
steps = 120
seed = 4
[pipeline]
policy = adaptive
b = 0.3
k = 3
model = hold
initial = 20
retrain = 48
seed = 5
[run]
sample_every = 15
[assert]
)";

ScenarioSpec spec_with(const std::string& assertions) {
  return ScenarioSpec::parse_string(std::string(kBaseSpec) + assertions);
}

template <typename Fn>
void expect_throw_containing(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected InvalidArgument containing '" << needle << "'";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

std::filesystem::path scenarios_dir() {
  return std::filesystem::path(RESMON_SOURCE_DIR) / "scenarios";
}

std::vector<std::filesystem::path> shipped_packs() {
  std::vector<std::filesystem::path> packs;
  for (const auto& entry :
       std::filesystem::directory_iterator(scenarios_dir())) {
    if (entry.path().extension() == ".scn") packs.push_back(entry.path());
  }
  std::sort(packs.begin(), packs.end());
  return packs;
}

// ---- grammar ---------------------------------------------------------------

TEST(ScenarioSpecParse, FullInProcessGrammarRoundTrips) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(R"(
# leading comment
name = full           # trailing comment
description = all the knobs

[trace]
profile = bitbrains
nodes = 12
steps = 200
seed = 3
spike_probability = 0.04

[pipeline]
policy = deadband
b = 0.25
k = 5
model = auto-arima
initial = 40
retrain = 50
temporal_window = 2
threads = 4
seed = 9

[faults]
spec = dup=0.2;seed=5

[run]
steps = 150
horizons = 1, 6, 24
sample_every = 5
baseline_compare = true

[assert]
resmon_scenario_steps == 150
resmon_scenario_rmse{h="6"} in 0.1 +- 0.05
resmon_collect_sends_total nondecreasing slack 0.5
)");
  EXPECT_EQ(spec.name, "full");
  EXPECT_EQ(spec.profile, "bitbrains");
  EXPECT_EQ(spec.nodes, 12u);
  EXPECT_EQ(spec.trace_seed, 3u);
  ASSERT_EQ(spec.profile_overrides.size(), 1u);
  EXPECT_EQ(spec.profile_overrides[0].first, "spike_probability");
  EXPECT_EQ(spec.policy, collect::PolicyKind::kDeadband);
  EXPECT_DOUBLE_EQ(spec.max_frequency, 0.25);
  EXPECT_EQ(spec.num_clusters, 5u);
  EXPECT_EQ(spec.model, forecast::ForecasterKind::kAutoArima);
  EXPECT_EQ(spec.temporal_window, 2u);
  EXPECT_EQ(spec.threads, 4u);
  EXPECT_FALSE(spec.faults.empty());
  EXPECT_FALSE(spec.socket_mode);
  EXPECT_EQ(spec.run_steps, 150u);
  EXPECT_EQ(spec.horizons, (std::vector<std::size_t>{1, 6, 24}));
  EXPECT_TRUE(spec.baseline_compare);

  ASSERT_EQ(spec.assertions.size(), 3u);
  EXPECT_EQ(spec.assertions[0].kind, Assertion::Kind::kCompare);
  EXPECT_EQ(spec.assertions[0].op, Assertion::Op::kEq);
  EXPECT_EQ(spec.assertions[1].kind, Assertion::Kind::kBand);
  EXPECT_EQ(spec.assertions[1].series_key(),
            "resmon_scenario_rmse{h=\"6\"}");
  EXPECT_DOUBLE_EQ(spec.assertions[1].tolerance, 0.05);
  EXPECT_EQ(spec.assertions[2].kind, Assertion::Kind::kMonotonic);
  EXPECT_TRUE(spec.assertions[2].increasing);
  EXPECT_DOUBLE_EQ(spec.assertions[2].slack, 0.5);
}

TEST(ScenarioSpecParse, SocketGrammarWithChurn) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(R"(
name = sock
[controller]
stale_after_slots = 2
dead_after_slots = 5
[churn]
kill = 1:10
restart = 1:20
)");
  EXPECT_TRUE(spec.socket_mode);
  EXPECT_EQ(spec.stale_after_slots, 2u);
  EXPECT_EQ(spec.dead_after_slots, 5u);
  ASSERT_EQ(spec.churn.size(), 2u);
  EXPECT_FALSE(spec.churn[0].restart);
  EXPECT_EQ(spec.churn[0].node, 1u);
  EXPECT_EQ(spec.churn[0].slot, 10u);
  EXPECT_TRUE(spec.churn[1].restart);
  // Socket mode defaults to short-horizon scoring.
  EXPECT_EQ(spec.horizons, (std::vector<std::size_t>{1}));
}

TEST(ScenarioSpecParse, UnquotedLabelValuesMatchQuotedOnes) {
  const ScenarioSpec spec = ScenarioSpec::parse_string(R"(
name = labels
[assert]
resmon_scenario_rmse{h=1} > 0
resmon_scenario_rmse{h="1"} > 0
)");
  ASSERT_EQ(spec.assertions.size(), 2u);
  EXPECT_EQ(spec.assertions[0].series_key(),
            spec.assertions[1].series_key());
}

TEST(ScenarioSpecParse, ErrorsNameTheOffendingLine) {
  // The unknown section sits on line 3 of the snippet (origin "bad.scn").
  expect_throw_containing(
      [] {
        ScenarioSpec::parse_string("name = x\n\n[nope]\n", "bad.scn");
      },
      "bad.scn:3: unknown section [nope]");
  expect_throw_containing(
      [] {
        ScenarioSpec::parse_string(
            "name = x\n[pipeline]\nbudget = 0.3\n", "bad.scn");
      },
      "bad.scn:3: unknown [pipeline] key 'budget'");
  expect_throw_containing(
      [] {
        ScenarioSpec::parse_string("name = x\n[pipeline]\nmodel = rnn\n",
                                   "bad.scn");
      },
      "bad.scn:3: unknown model 'rnn'");
  expect_throw_containing(
      [] {
        ScenarioSpec::parse_string(
            "name = x\n[trace]\nspikiness = 2\n", "bad.scn");
      },
      "not an overridable profile knob");
  expect_throw_containing(
      [] { ScenarioSpec::parse_string("name = x\n[trace]\nnodes = ten\n"); },
      "ten");
}

TEST(ScenarioSpecParse, ShardsSelectTwoTiersInSocketModeOnly) {
  const std::string socket = "name = x\n[controller]\nstale_after_slots = 1\n";
  EXPECT_EQ(ScenarioSpec::parse_string(socket).shards, 0u);
  const ScenarioSpec two_tier =
      ScenarioSpec::parse_string(socket + "[topology]\nshards = 2\n");
  EXPECT_EQ(two_tier.shards, 2u);
  expect_throw_containing(
      [] { ScenarioSpec::parse_string("name = x\n[topology]\nshards = 2\n"); },
      "shards requires a [controller] section");
  expect_throw_containing(
      [&] {
        ScenarioSpec::parse_string(socket + "[run]\nbaseline_compare = yes\n");
      },
      "baseline_compare in socket mode requires shards >= 1");
  expect_throw_containing(
      [&] { ScenarioSpec::parse_string(socket + "[topology]\ntiers = 2\n"); },
      "unknown [topology] key 'tiers'");
}

TEST(ScenarioSpecParse, CrossFieldValidation) {
  expect_throw_containing(
      [] { ScenarioSpec::parse_string("description = anon\n"); },
      "no 'name ='");
  expect_throw_containing(
      [] { ScenarioSpec::parse_string("name = x\n[churn]\nkill = 0:5\n"); },
      "[churn] requires a [controller] section");
  expect_throw_containing(
      [] { ScenarioSpec::parse_string("name = x\n[controller]\n"); },
      "stale_after_slots >= 1");
  expect_throw_containing(
      [] {
        ScenarioSpec::parse_string(
            "name = x\n[controller]\nstale_after_slots = 1\n"
            "[churn]\nrestart = 2:30\n");
      },
      "restart of node 2 has no earlier kill");
  expect_throw_containing(
      [] {
        ScenarioSpec::parse_string(
            "name = x\n[controller]\nstale_after_slots = 1\n"
            "[faults]\nspec = dup=0.5\n");
      },
      "[faults] applies to the in-process link");
  expect_throw_containing(
      [] {
        ScenarioSpec::parse_string(
            "name = x\n[assert]\nresmon_x in 0.5 +- -0.1\n");
      },
      "negative tolerance");
  expect_throw_containing(
      [] { ScenarioSpec::parse_string("name = x\n[assert]\nresmon_x ~= 3\n"); },
      "expected 'METRIC <op> VALUE'");
}

// The runner has no live-host mode, so no pack can make ctest read /proc:
// a [host] section is refused wherever it stands, whatever it holds.
TEST(ScenarioSpecParse, HostSectionGrammarAndValidation) {
  expect_throw_containing(
      [] { ScenarioSpec::parse_string("name = x\n[host]\nsamples = 30\n"); },
      "<string>:2: unknown section [host]");
  expect_throw_containing(
      [] {
        ScenarioSpec::parse_string(
            "name = x\n[pipeline]\nk = 1\n[host]\ninterval_ms = 5\n"
            "procfs_root = /tmp/fake\nbusy_iters = 7\n",
            "self_soak.scn");
      },
      "self_soak.scn:4: unknown section [host]");
  expect_throw_containing(
      [] { ScenarioSpec::parse_string("name = x\n[host]\n"); },
      "<string>:2: unknown section [host]");
}

// ---- runner & evaluator ----------------------------------------------------

TEST(ScenarioRunner, PassingAssertionsPass) {
  obs::MetricsRegistry registry;
  const ScenarioResult result = run(spec_with(R"(
resmon_scenario_steps == 120
resmon_scenario_traffic_fraction <= 1
resmon_scenario_rmse{h="1"} > 0
resmon_scenario_bytes_sent > 0
resmon_collect_sends_total nondecreasing
)"),
                                    registry);
  EXPECT_TRUE(result.passed);
  EXPECT_EQ(result.steps_run, 120u);
  EXPECT_EQ(result.first_failure(), nullptr);
  EXPECT_EQ(result.outcomes.size(), 5u);
}

TEST(ScenarioRunner, ViolatedAssertionReportsMetricExpectedActual) {
  obs::MetricsRegistry registry;
  const ScenarioResult result =
      run(spec_with("resmon_scenario_steps == 999\n"), registry);
  EXPECT_FALSE(result.passed);
  const AssertionOutcome* failure = result.first_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_EQ(failure->assertion.metric, "resmon_scenario_steps");
  EXPECT_NE(failure->expected.find("== 999"), std::string::npos);
  EXPECT_DOUBLE_EQ(failure->actual, 120.0);

  // The human report carries all three: metric name, expected, actual.
  std::ostringstream out;
  EXPECT_FALSE(print_report(result, out, /*verbose=*/false));
  const std::string text = out.str();
  EXPECT_NE(text.find("FAIL"), std::string::npos) << text;
  EXPECT_NE(text.find("resmon_scenario_steps"), std::string::npos) << text;
  EXPECT_NE(text.find("999"), std::string::npos) << text;
  EXPECT_NE(text.find("120"), std::string::npos) << text;
}

TEST(ScenarioRunner, MissingMetricIsAFailureNotACrash) {
  obs::MetricsRegistry registry;
  const ScenarioResult result =
      run(spec_with("resmon_no_such_family > 0\n"), registry);
  EXPECT_FALSE(result.passed);
  const AssertionOutcome* failure = result.first_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_FALSE(failure->found);
  std::ostringstream out;
  print_report(result, out, /*verbose=*/false);
  EXPECT_NE(out.str().find("metric not found"), std::string::npos)
      << out.str();
}

TEST(ScenarioRunner, BandAssertionChecksTolerance) {
  obs::MetricsRegistry pass_registry;
  EXPECT_TRUE(
      run(spec_with("resmon_scenario_steps in 120 +- 0.5\n"), pass_registry)
          .passed);
  obs::MetricsRegistry fail_registry;
  EXPECT_FALSE(
      run(spec_with("resmon_scenario_steps in 100 +- 5\n"), fail_registry)
          .passed);
}

TEST(ScenarioRunner, MonotonicViolationNamesTheSample) {
  // Cumulative sends can only grow, so "nonincreasing" must fail and name
  // the first sample where the series rose.
  obs::MetricsRegistry registry;
  const ScenarioResult result =
      run(spec_with("resmon_collect_sends_total nonincreasing\n"), registry);
  EXPECT_FALSE(result.passed);
  const AssertionOutcome* failure = result.first_failure();
  ASSERT_NE(failure, nullptr);
  EXPECT_NE(failure->expected.find("violated at sample"), std::string::npos)
      << failure->expected;
}

TEST(ScenarioRunner, RepeatedRunsAreBitIdentical) {
  obs::MetricsRegistry first;
  obs::MetricsRegistry second;
  run(spec_with(""), first);
  run(spec_with(""), second);
  const auto a = first.snapshot();
  const auto b = second.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].labels, b[i].labels);
    // Wall-clock stage timings are the one legitimately nondeterministic
    // family; everything else must match bit for bit.
    if (a[i].name.find("_seconds") != std::string::npos) continue;
    EXPECT_EQ(a[i].value, b[i].value) << a[i].name << a[i].labels;
  }
}

TEST(ScenarioRunner, MatchesAHandRolledPipelineOnTheGoldenTrace) {
  // The runner must be exactly the library pipeline in a costume: the same
  // options on the same seeded trace (built via the shared golden fixture)
  // produce bit-identical RMSE and traffic accounting.
  obs::MetricsRegistry registry;
  const ScenarioResult result = run(spec_with(""), registry);
  ASSERT_TRUE(result.passed);

  const trace::InMemoryTrace trace =
      resmon::testing::make_golden_trace("google", 8, 120, 4);
  core::PipelineOptions options;
  options.policy = collect::PolicyKind::kAdaptive;
  options.max_frequency = 0.3;
  options.num_clusters = 3;
  options.forecaster = forecast::ForecasterKind::kSampleHold;
  options.schedule = {.initial_steps = 20, .retrain_interval = 48};
  options.seed = 5;
  sim::Driver driver(trace, options);
  core::RmseAccumulator rmse;
  for (std::size_t t = 0; t < 120; ++t) {
    driver.step();
    if (t + 1 < 20 || t + 1 >= 120) continue;  // warm-up / no truth at h=1
    rmse.add(sim::rmse_at(driver.pipeline(), trace, 1));
  }

  EXPECT_DOUBLE_EQ(
      registry.value("resmon_scenario_rmse", {{"h", "1"}}).value_or(-1.0),
      rmse.value());
  EXPECT_DOUBLE_EQ(
      registry.value("resmon_scenario_bytes_sent").value_or(-1.0),
      static_cast<double>(driver.collector().bytes_sent()));
  EXPECT_DOUBLE_EQ(
      registry.value("resmon_scenario_traffic_fraction").value_or(-1.0),
      driver.collector().average_actual_frequency());
}

// ---- shipped packs: the regression gate ------------------------------------

TEST(ShippedPacks, AtLeastFivePacksShip) {
  EXPECT_GE(shipped_packs().size(), 5u);
}

TEST(ShippedPacks, EveryNamedProfileExists) {
  // Drift test: a pack naming a profile that trace::profile_by_name no
  // longer knows must fail here, not at `resmon scenario run` time.
  for (const auto& path : shipped_packs()) {
    const ScenarioSpec spec = ScenarioSpec::parse_file(path.string());
    EXPECT_NO_THROW(trace::profile_by_name(spec.profile))
        << path << " names unknown profile '" << spec.profile << "'";
  }
}

TEST(ShippedPacks, AllPass) {
  for (const auto& path : shipped_packs()) {
    const ScenarioSpec spec = ScenarioSpec::parse_file(path.string());
    obs::MetricsRegistry registry;
    const ScenarioResult result = run(spec, registry);
    std::ostringstream report;
    print_report(result, report, /*verbose=*/true);
    EXPECT_TRUE(result.passed) << path << "\n" << report.str();
  }
}

}  // namespace
}  // namespace resmon::scenario
