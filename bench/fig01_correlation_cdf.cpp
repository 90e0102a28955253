// Fig. 1 — Empirical CDF of pairwise spatial correlation values.
//
// The paper's motivation: sensor-network measurements (temperature,
// humidity) are strongly spatially correlated in the long term, while
// CPU/memory utilization across machines is not — which is why
// Gaussian/covariance methods fit sensors but not cluster monitoring.
//
// Expected shape: Temperature/Humidity mass above 0.5; CPU/Memory mass
// concentrated in (-0.5, 0.5).
#include "bench_util.hpp"

#include "common/stats.hpp"

namespace {

using namespace resmon;

std::vector<double> pairwise_correlations(const trace::Trace& t,
                                          std::size_t resource) {
  std::vector<std::vector<double>> series;
  series.reserve(t.num_nodes());
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    series.push_back(t.series(i, resource));
  }
  std::vector<double> corrs;
  corrs.reserve(t.num_nodes() * (t.num_nodes() - 1) / 2);
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    for (std::size_t j = i + 1; j < t.num_nodes(); ++j) {
      corrs.push_back(stats::pearson(series[i], series[j]));
    }
  }
  return corrs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {});
  bench::banner("Fig. 1",
                "Empirical CDF of pairwise spatial correlations: sensor "
                "modalities vs machine resources");

  trace::SyntheticProfile sensors = trace::sensors_profile();
  trace::SyntheticProfile machines = bench::profile_from_args(args, "google");
  // Keep the pair count manageable at default scale.
  machines.num_nodes = std::min<std::size_t>(machines.num_nodes, 150);

  const std::uint64_t seed = args.get_int("seed", 1);
  const trace::InMemoryTrace sensor_trace = trace::generate(sensors, seed);
  const trace::InMemoryTrace machine_trace =
      trace::generate(machines, seed + 1);

  const stats::EmpiricalCdf temperature(
      pairwise_correlations(sensor_trace, 0));
  const stats::EmpiricalCdf humidity(pairwise_correlations(sensor_trace, 1));
  const stats::EmpiricalCdf cpu(
      pairwise_correlations(machine_trace, trace::kCpu));
  const stats::EmpiricalCdf memory(
      pairwise_correlations(machine_trace, trace::kMemory));

  Table table({"x", "F(x) Temperature", "F(x) Humidity", "F(x) CPU",
               "F(x) Memory"},
              3);
  for (double x = -1.0; x <= 1.0 + 1e-9; x += 0.1) {
    table.add_row({x, temperature(x), humidity(x), cpu(x), memory(x)});
  }
  bench::emit(table, args);

  // The paper's headline contrast, as single numbers.
  std::cout << "\nfraction of pairs with correlation > 0.5:\n"
            << "  Temperature: " << 1.0 - temperature(0.5) << "\n"
            << "  Humidity:    " << 1.0 - humidity(0.5) << "\n"
            << "  CPU:         " << 1.0 - cpu(0.5) << "\n"
            << "  Memory:      " << 1.0 - memory(0.5) << "\n";
  return 0;
}
