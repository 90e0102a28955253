// resmon — command-line front end to the monitoring library.
//
// Subcommands:
//   generate  — write a synthetic cluster trace to CSV
//               resmon generate --profile alibaba --nodes 100 --steps 2000
//                      --seed 1 --out trace.csv
//   monitor   — run the full monitoring pipeline over a CSV trace and print
//               a bandwidth/accuracy report
//               resmon monitor --trace trace.csv --b 0.3 --k 3
//                      --model arima [--h 5] [--report report.csv]
//   choose-k  — recommend a cluster count for a CSV trace from the
//               silhouette score over a K sweep
//               resmon choose-k --trace trace.csv [--kmax 12]
//   scenario  — run a declarative scenario pack and grade its assertions,
//               or list the packs in a directory
//               resmon scenario run scenarios/paper_baseline.scn [--verbose]
//               resmon scenario list [scenarios/]
//   host-sample — print live host/process utilization samples from the
//               procfs backend (operator sanity check for --source procfs)
//               resmon host-sample --samples 5 --interval-ms 200
//                      [--pid P|self] [--procfs-root /proc] [--record FILE]
//
// The first positional token selects the subcommand; everything after it is
// ordinary --flag arguments (`scenario` takes positional operands).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "cluster/quality.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "host/procfs.hpp"
#include "host/recording.hpp"
#include "host/sampler.hpp"
#include "host/source.hpp"
#include "obs/export.hpp"
#include "scenario/runner.hpp"
#include "sim/driver.hpp"
#include "sim/evaluate.hpp"
#include "trace/loader.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace resmon;

int usage() {
  std::cerr
      << "usage: resmon <generate|monitor|choose-k|scenario|host-sample>"
         " [--flags]\n"
         "  generate --profile alibaba|bitbrains|google|sensors\n"
         "           [--nodes N] [--steps T] [--seed S] --out FILE\n"
         "  monitor  --trace FILE [--b 0.3] [--k 3]\n"
         "           [--model hold|arima|auto-arima|lstm|holt-winters]\n"
         "           [--h 5] [--initial 400] [--retrain 288]\n"
         "           [--threads 1] [--report FILE]\n"
         "           [--metrics-out FILE.prom] [--trace-out FILE.jsonl]\n"
         "  choose-k --trace FILE [--kmax 12] [--sample-step 25]\n"
         "  scenario run FILE.scn [--verbose] [--metrics-out FILE.prom]\n"
         "  scenario list [DIR]\n"
         "  host-sample [--samples 5] [--interval-ms 200] [--pid P|self]\n"
         "           [--procfs-root /proc] [--record FILE]\n"
         "           [--metrics-out FILE.prom]\n";
  return 2;
}

// Operator sanity check for the procfs backend: take a few live samples and
// print them as one line per slot — the same numbers resmon_agent
// --source procfs would put on the wire.
int cmd_host_sample(const Args& args) {
  const std::uint64_t interval_ms =
      static_cast<std::uint64_t>(args.get_int("interval-ms", 200));
  const std::size_t samples =
      static_cast<std::size_t>(args.get_int("samples", 5));
  host::DirProcfs procfs(args.get("procfs-root", "/proc"));
  obs::MetricsRegistry registry;
  host::HostSamplerOptions hopts;
  if (args.has("pid")) {
    const std::string pid = args.get("pid", "");
    hopts.watch_pids = {pid == "self"
                            ? static_cast<std::uint64_t>(::getpid())
                            : static_cast<std::uint64_t>(
                                  args.get_int("pid", 0))};
  }
  hopts.page_size = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  hopts.metrics = &registry;
  host::HostSampler sampler(procfs, hopts);

  std::ofstream record_out;
  std::unique_ptr<host::RecordingWriter> recorder;
  if (args.has("record")) {
    record_out.open(args.get("record", ""));
    if (!record_out) {
      std::cerr << "host-sample: cannot open " << args.get("record", "")
                << "\n";
      return 1;
    }
    recorder = std::make_unique<host::RecordingWriter>(
        record_out, interval_ms, host::HostSampler::kNumResources);
  }
  host::ProcfsSamplerSource::Options sopts;
  sopts.interval_ms = interval_ms;
  sopts.recorder = recorder.get();
  host::ProcfsSamplerSource source(sampler, sopts);

  for (std::size_t t = 0; t < samples; ++t) {
    const std::vector<double> m = source.measurement(t);
    std::cout << "t=" << t;
    for (std::size_t r = 0; r < m.size(); ++r) {
      std::cout << ' ' << host::HostSampler::resource_name(r) << '='
                << m[r];
    }
    std::cout << '\n';
  }
  if (recorder != nullptr) {
    recorder->finish();
    std::cout << "recording written to " << args.get("record", "") << "\n";
  }
  if (args.has("metrics-out")) {
    obs::write_metrics_file(args.get("metrics-out", ""), registry);
  }
  return 0;
}

int cmd_scenario(int argc, char** argv) {
  // Positional operands, parsed by hand: Args rejects positionals.
  if (argc < 3) return usage();
  const std::string action = argv[2];
  if (action == "list") {
    const std::string dir = argc > 3 ? argv[3] : "scenarios";
    std::vector<std::filesystem::path> packs;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".scn") packs.push_back(entry.path());
    }
    if (ec) {
      std::cerr << "scenario list: cannot read " << dir << ": "
                << ec.message() << "\n";
      return 1;
    }
    std::sort(packs.begin(), packs.end());
    for (const auto& path : packs) {
      const auto spec = scenario::ScenarioSpec::parse_file(path.string());
      std::cout << path.string() << ": " << spec.name;
      if (!spec.description.empty()) std::cout << " — " << spec.description;
      std::cout << " (" << spec.assertions.size() << " assertions"
                << (spec.socket_mode ? ", socket mode" : "") << ")\n";
    }
    if (packs.empty()) std::cout << "no .scn files in " << dir << "\n";
    return 0;
  }
  if (action != "run") return usage();

  std::string file;
  bool verbose = false;
  std::string metrics_out;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (!arg.empty() && arg[0] != '-' && file.empty()) {
      file = arg;
    } else {
      return usage();
    }
  }
  if (file.empty()) return usage();

  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse_file(file);
  obs::MetricsRegistry registry;
  const scenario::ScenarioResult result = scenario::run(spec, registry);
  if (!metrics_out.empty()) {
    obs::write_metrics_file(metrics_out, registry);
  }
  return scenario::print_report(result, std::cout, verbose) ? 0 : 1;
}

int cmd_generate(const Args& args) {
  trace::SyntheticProfile profile =
      trace::profile_by_name(args.get("profile", "alibaba"));
  if (args.has("nodes")) {
    profile.num_nodes = static_cast<std::size_t>(args.get_int("nodes", 0));
  }
  if (args.has("steps")) {
    profile.num_steps = static_cast<std::size_t>(args.get_int("steps", 0));
  }
  if (args.get_bool("full")) profile = trace::scale_to_paper(profile);
  const std::string out_path = args.get("out", "");
  if (out_path.empty()) {
    std::cerr << "generate: --out FILE is required\n";
    return 2;
  }

  const trace::InMemoryTrace t =
      trace::generate(profile, args.get_int("seed", 1));
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "generate: cannot open " << out_path << "\n";
    return 1;
  }
  trace::save_csv(t, out);
  std::cout << "wrote " << t.num_nodes() << " nodes x " << t.num_steps()
            << " steps (" << profile.name << " profile) to " << out_path
            << "\n";
  return 0;
}

int cmd_monitor(const Args& args) {
  const std::string trace_path = args.get("trace", "");
  if (trace_path.empty()) {
    std::cerr << "monitor: --trace FILE is required\n";
    return 2;
  }
  const trace::InMemoryTrace t = trace::load_csv_file(trace_path);

  core::PipelineOptions options;
  options.max_frequency = args.get_double("b", 0.3);
  options.num_clusters = static_cast<std::size_t>(args.get_int("k", 3));
  options.forecaster =
      forecast::forecaster_kind_from_string(args.get("model", "arima"));
  options.schedule = {
      .initial_steps = static_cast<std::size_t>(args.get_int("initial", 400)),
      .retrain_interval =
          static_cast<std::size_t>(args.get_int("retrain", 288))};
  options.seed = args.get_int("seed", 1);
  options.num_threads = args.get_threads();

  const std::size_t h = static_cast<std::size_t>(args.get_int("h", 5));
  obs::TraceBuffer trace_events;
  if (args.has("trace-out")) options.trace_events = &trace_events;
  sim::Driver driver(t, options);
  const core::MonitoringPipeline& pipeline = driver.pipeline();

  Table report({"step", "RMSE h=0", std::string("RMSE h=") +
                                        std::to_string(h)});
  core::RmseAccumulator now, ahead;
  const std::size_t report_stride = std::max<std::size_t>(
      1, t.num_steps() / 50);
  while (!driver.done()) {
    driver.step();
    const std::size_t step = pipeline.current_step() - 1;
    const double r0 = sim::rmse_at(pipeline, t, 0);
    now.add(r0);
    double rh = 0.0;
    if (step + h < t.num_steps()) {
      rh = sim::rmse_at(pipeline, t, h);
      ahead.add(rh);
    }
    if (step % report_stride == 0) {
      report.add_row({static_cast<double>(step), r0, rh});
    }
  }

  std::cout << "trace: " << t.num_nodes() << " nodes x " << t.num_steps()
            << " steps, " << t.num_resources() << " resources\n"
            << "budget B = " << options.max_frequency << ", actual "
            << driver.collector().average_actual_frequency() << "\n"
            << "bytes on the wire: " << driver.collector().bytes_sent()
            << "\n"
            << "time-averaged RMSE h=0: " << now.value() << "\n"
            << "time-averaged RMSE h=" << h << ": " << ahead.value()
            << "\n";
  if (args.has("report")) {
    report.save_csv(args.get("report", ""));
    std::cout << "per-step report written to " << args.get("report", "")
              << "\n";
  }
  if (args.has("metrics-out")) {
    obs::write_metrics_file(args.get("metrics-out", ""), pipeline.metrics());
    std::cout << "metrics written to " << args.get("metrics-out", "") << "\n";
  }
  if (args.has("trace-out")) {
    obs::write_trace_file(args.get("trace-out", ""), trace_events);
    std::cout << "trace events written to " << args.get("trace-out", "")
              << "\n";
  }
  return 0;
}

int cmd_choose_k(const Args& args) {
  const std::string trace_path = args.get("trace", "");
  if (trace_path.empty()) {
    std::cerr << "choose-k: --trace FILE is required\n";
    return 2;
  }
  const trace::InMemoryTrace t = trace::load_csv_file(trace_path);
  const std::size_t kmax = std::min<std::size_t>(
      static_cast<std::size_t>(args.get_int("kmax", 12)), t.num_nodes());
  // Sample snapshots across the trace and score K on each node's sampled
  // series of the first resource.
  const std::size_t stride = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("sample-step", 25)));
  const std::size_t samples = t.num_steps() / stride;
  Matrix points(t.num_nodes(), samples);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t s = 0; s < samples; ++s) {
      points(i, s) = t.value(i, s * stride, 0);
    }
  }
  Rng rng(args.get_int("seed", 1));
  const cluster::KSelection sel = cluster::choose_k(points, 2, kmax, rng);

  Table table({"K", "inertia", "silhouette"});
  for (std::size_t i = 0; i < sel.ks.size(); ++i) {
    table.add_row({static_cast<double>(sel.ks[i]), sel.inertias[i],
                   sel.silhouettes[i]});
  }
  table.print(std::cout);
  std::cout << "\nrecommended K = " << sel.best_k
            << " (max silhouette)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "scenario") return cmd_scenario(argc, argv);
    const Args args(argc - 1, argv + 1);
    if (command == "generate") return cmd_generate(args);
    if (command == "monitor") return cmd_monitor(args);
    if (command == "choose-k") return cmd_choose_k(args);
    if (command == "host-sample") return cmd_host_sample(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "resmon " << command << ": " << e.what() << "\n";
    return 1;
  }
}
