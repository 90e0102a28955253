#include "sim/monitor_experiment.hpp"

#include <chrono>
#include <limits>
#include <optional>

#include "cluster/baselines.hpp"
#include "cluster/kmeans.hpp"
#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "gaussian/selection.hpp"
#include "sim/evaluate.hpp"

namespace resmon::sim {

using Clock = std::chrono::steady_clock;

std::string to_string(MonitorMethod method) {
  switch (method) {
    case MonitorMethod::kProposed:
      return "Proposed";
    case MonitorMethod::kMinimumDistance:
      return "Min.-distance";
    case MonitorMethod::kTopW:
      return "Top-W";
    case MonitorMethod::kTopWUpdate:
      return "Top-W-Update";
    case MonitorMethod::kBatchSelection:
      return "Batch Selection";
  }
  throw InvalidArgument("unknown monitor method");
}

MonitorExperimentResult run_monitor_experiment(
    const trace::Trace& trace, MonitorMethod method,
    const MonitorExperimentOptions& o) {
  RESMON_REQUIRE(o.resource < trace.num_resources(),
                 "monitor experiment: resource out of range");
  RESMON_REQUIRE(o.num_monitors >= 1 && o.num_monitors < trace.num_nodes(),
                 "monitor experiment: K must be in [1, N)");
  RESMON_REQUIRE(trace.num_steps() >= o.train_steps + o.test_steps,
                 "monitor experiment: trace too short");

  MonitorExperimentResult result;
  // Cluster methods estimate node i by monitor owner[i]; the Gaussian ones
  // infer every node from `model`.
  std::vector<std::size_t> owner;
  std::optional<gaussian::GaussianModel> model;

  const auto t0 = Clock::now();
  // One point per node: its training-phase series.
  const Matrix points = cluster::node_series(trace, o.resource, o.train_steps);
  switch (method) {
    case MonitorMethod::kProposed: {
      Rng rng(o.seed);
      cluster::KMeansResult km = cluster::kmeans(points, o.num_monitors, rng);
      // Monitor per cluster: the member closest to the centroid.
      result.monitors.resize(o.num_monitors);
      std::vector<double> best_d2(
          o.num_monitors, std::numeric_limits<double>::max());
      for (std::size_t i = 0; i < points.rows(); ++i) {
        const std::size_t j = km.assignment[i];
        const double d2 = squared_distance(points.row(i), km.centroids.row(j));
        if (d2 < best_d2[j]) {
          best_d2[j] = d2;
          result.monitors[j] = i;
        }
      }
      owner = std::move(km.assignment);
      break;
    }
    case MonitorMethod::kMinimumDistance: {
      cluster::MinimumDistanceClustering picker(o.num_monitors, o.seed);
      owner = picker.at(points).assignment;
      result.monitors = picker.monitors();
      break;
    }
    case MonitorMethod::kTopW:
      model = gaussian::GaussianModel::fit(points.transposed());
      result.monitors = gaussian::select_top_w(*model, o.num_monitors);
      break;
    case MonitorMethod::kTopWUpdate:
      model = gaussian::GaussianModel::fit(points.transposed());
      result.monitors = gaussian::select_top_w_update(*model, o.num_monitors);
      break;
    case MonitorMethod::kBatchSelection: {
      model = gaussian::GaussianModel::fit(points.transposed());
      Rng rng(o.seed);
      result.monitors = gaussian::select_batch(*model, o.num_monitors, rng);
      break;
    }
    default:
      throw InvalidArgument("unknown monitor method");
  }
  result.selection_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Test phase: only the monitors report.
  core::RmseAccumulator acc;
  std::vector<double> observed(o.num_monitors);
  std::vector<double> estimate(trace.num_nodes());
  for (std::size_t t = o.train_steps; t < o.train_steps + o.test_steps; ++t) {
    const Matrix truth = truth_at(trace, t, o.resource, 1);
    for (std::size_t m = 0; m < o.num_monitors; ++m) {
      observed[m] = truth(result.monitors[m], 0);
    }
    if (model) {
      estimate = model->infer(result.monitors, observed);
    } else {
      for (std::size_t i = 0; i < estimate.size(); ++i) {
        estimate[i] = observed[owner[i]];
      }
    }
    acc.add(core::rmse_step(truth, estimate));
  }
  result.rmse = acc.value();
  return result;
}

}  // namespace resmon::sim
