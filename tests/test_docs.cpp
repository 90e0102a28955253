// Documentation drift tests: docs/METRICS.md must catalogue exactly the
// metric families the code can register — no undocumented metric, no
// documented ghost. The registry is populated the honest way, by
// constructing every metrics-emitting component (in-process fleet with a
// fault schedule, socket controller with the staleness policy, agent), then the
// exposition's `# TYPE` lines are diffed against the catalogue's table.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "agg/aggregator.hpp"
#include "core/pipeline.hpp"
#include "host/procfs.hpp"
#include "host/sampler.hpp"
#include "net/agent.hpp"
#include "net/controller.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "scenario/runner.hpp"
#include "sim/driver.hpp"
#include "trace/synthetic.hpp"

namespace resmon {
namespace {

// Registers every metric family the codebase can emit into one registry.
// Construction alone suffices: all components register their series in
// their constructors (eagerly, including label-enumerated families like
// wire errors and fault kinds), never lazily on first use.
obs::MetricsRegistry& populated_registry() {
  static obs::MetricsRegistry registry;
  static bool done = false;
  if (done) return registry;
  done = true;

  trace::SyntheticProfile profile = trace::alibaba_profile();
  profile.num_nodes = 4;
  profile.num_steps = 16;
  static const trace::InMemoryTrace trace = trace::generate(profile, 1);

  // In-process fleet (collect + cluster + forecast + pipeline families),
  // with a non-empty fault schedule so the faultnet families register too.
  core::PipelineOptions popts;
  popts.num_clusters = 2;
  popts.schedule = {.initial_steps = 4, .retrain_interval = 8};
  popts.metrics = &registry;
  static sim::Driver driver(trace, popts,
                            faultnet::FaultSpec::parse("drop=0.01;seed=1"));

  // Socket controller with the staleness policy on (resmon_net_*), in
  // shard mode so the two-tier root families register too.
  net::ControllerOptions copts;
  copts.num_nodes = 1;
  copts.num_resources = trace.num_resources();
  copts.metrics = &registry;
  copts.stale_after_ms = 1000;
  copts.dead_after_ms = 2000;
  copts.num_shards = 1;
  static net::Controller controller(net::Socket::listen_tcp("127.0.0.1", 0),
                                    copts);

  // Aggregator tier (resmon_agg_*); its internal controller's registry is
  // left unset — the shard-mode controller above already covers those.
  agg::AggregatorOptions gopts;
  gopts.num_nodes = 1;
  gopts.num_resources = trace.num_resources();
  gopts.upstream.port = controller.port();  // never dialed: no connect here
  gopts.metrics = &registry;
  static agg::Aggregator aggregator(net::Socket::listen_tcp("127.0.0.1", 0),
                                    gopts);

  // Agent-side families register at construction, no connect needed.
  net::AgentOptions aopts;
  aopts.num_resources = trace.num_resources();
  aopts.metrics = &registry;
  static net::Agent agent(
      aopts, collect::make_policy_factory(collect::PolicyKind::kAlways, 1.0)());

  // Host sampler families (resmon_host_*) register at construction over a
  // fake procfs; no live-kernel reads in this test.
  static host::FakeProcfs procfs;
  host::HostSamplerOptions hopts;
  hopts.metrics = &registry;
  static host::HostSampler sampler(procfs, hopts);

  // Scenario-runner result gauges (resmon_scenario_*), registered the same
  // way ScenarioResult publication does.
  scenario::register_result_metrics(registry);

  return registry;
}

// Family names as the exposition declares them: `# TYPE <name> <type>`.
std::set<std::string> registered_families() {
  std::set<std::string> names;
  std::istringstream text(populated_registry().render_text());
  std::string line;
  while (std::getline(text, line)) {
    const std::string prefix = "# TYPE ";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t space = line.find(' ', prefix.size());
    names.insert(line.substr(prefix.size(), space - prefix.size()));
  }
  return names;
}

// Family names docs/METRICS.md catalogues: the backticked first column of
// its table rows (`| `resmon_...` | ...`).
std::set<std::string> documented_families() {
  const std::string path =
      std::string(RESMON_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::set<std::string> names;
  std::string line;
  while (std::getline(in, line)) {
    const std::string prefix = "| `resmon_";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t open = line.find('`');
    const std::size_t close = line.find('`', open + 1);
    if (close == std::string::npos) continue;
    names.insert(line.substr(open + 1, close - open - 1));
  }
  return names;
}

TEST(MetricsCatalogue, EveryRegisteredFamilyIsDocumented) {
  const std::set<std::string> documented = documented_families();
  for (const std::string& name : registered_families()) {
    EXPECT_TRUE(documented.count(name) > 0)
        << name << " is emitted by the code but missing from "
        << "docs/METRICS.md — add a row for it";
  }
}

TEST(MetricsCatalogue, EveryDocumentedFamilyExists) {
  const std::set<std::string> registered = registered_families();
  for (const std::string& name : documented_families()) {
    EXPECT_TRUE(registered.count(name) > 0)
        << name << " is catalogued in docs/METRICS.md but no component "
        << "registers it — stale row, delete or fix it";
  }
}

TEST(MetricsCatalogue, CatalogueIsNonTrivial) {
  // Guard against the drift tests passing vacuously on an empty table.
  EXPECT_GE(documented_families().size(), 40u);
  EXPECT_GE(registered_families().size(), 40u);
}

// -- performance playbook drift -----------------------------------------
// docs/PERFORMANCE.md documents every JSON-writing bench harness and the
// contract field names the playbook's policy hangs on. Harness names are
// read from the bench sources (the `BenchJson sink("suite", "harness")`
// second argument), so adding a harness without documenting it fails here.

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::set<std::string> json_bench_harnesses() {
  namespace fs = std::filesystem;
  const fs::path bench_dir = fs::path(RESMON_SOURCE_DIR) / "bench";
  std::set<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(bench_dir)) {
    if (entry.path().extension() != ".cpp") continue;
    const std::string source = read_file(entry.path().string());
    // Match:  BenchJson sink("<suite>", "<harness>")
    const std::string marker = "BenchJson sink(\"";
    for (std::size_t pos = source.find(marker); pos != std::string::npos;
         pos = source.find(marker, pos + 1)) {
      const std::size_t suite_end = source.find('"', pos + marker.size());
      const std::size_t name_open = source.find('"', suite_end + 1);
      const std::size_t name_close = source.find('"', name_open + 1);
      if (name_close == std::string::npos) continue;
      names.insert(source.substr(name_open + 1, name_close - name_open - 1));
    }
  }
  return names;
}

TEST(PerformancePlaybook, DocumentsEveryJsonBenchHarness) {
  const std::string doc =
      read_file(std::string(RESMON_SOURCE_DIR) + "/docs/PERFORMANCE.md");
  const std::set<std::string> harnesses = json_bench_harnesses();
  EXPECT_GE(harnesses.size(), 3u);  // vacuous-pass guard
  for (const std::string& harness : harnesses) {
    EXPECT_NE(doc.find("`" + harness + "`"), std::string::npos)
        << harness << " writes BENCH_*.json rows but is not documented in "
        << "docs/PERFORMANCE.md — add it to the harness table";
  }
}

TEST(PerformancePlaybook, DocumentsContractFieldNames) {
  const std::string doc =
      read_file(std::string(RESMON_SOURCE_DIR) + "/docs/PERFORMANCE.md");
  const std::string bench = read_file(std::string(RESMON_SOURCE_DIR) +
                                      "/bench/micro_parallel_step.cpp");
  // The contract fields the regression policy gates on must exist in both
  // the harness that emits them and the playbook that explains them.
  for (const char* field :
       {"cluster_forecast_speedup", "steady_allocs_per_step", "identical",
        "forecast_all_allocs_per_call"}) {
    EXPECT_NE(bench.find(field), std::string::npos)
        << field << " vanished from bench/micro_parallel_step.cpp — update "
        << "docs/PERFORMANCE.md and this test together";
    EXPECT_NE(doc.find(field), std::string::npos)
        << field << " is emitted by micro_parallel_step but not documented "
        << "in docs/PERFORMANCE.md";
  }
}

}  // namespace
}  // namespace resmon
