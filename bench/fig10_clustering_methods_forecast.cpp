// Fig. 10 — Time-averaged RMSE vs forecast horizon h using sample-and-hold
// forecasting (K = 3) on top of the different clustering methods: the
// proposed dynamic clustering, the minimum-distance baseline and the
// offline static baseline, plus the stddev bound.
//
// All methods use the same estimation rule (eq. (2)): held centroid of the
// node's modal cluster over the last M'+1 steps, plus the alpha-scaled
// per-node offset of eq. (12). Each method keeps its own history of
// (snapshot, clustering) steps, read by the one core::modal_offsets.
//
// Expected shape: proposed best at short horizons; static (offline)
// approaches it at long horizons; minimum-distance worst.
#include <algorithm>

#include "bench_util.hpp"

#include "cluster/baselines.hpp"
#include "collect/fleet_collector.hpp"
#include "core/estimation.hpp"
#include "core/metrics.hpp"
#include "sim/evaluate.hpp"

namespace {

using namespace resmon;

constexpr std::size_t kMPrime = 5;

/// Sample-and-hold estimate for every node from one method's history: held
/// centroid of the modal cluster + eq. (12) offset, as an N x 1 matrix.
/// (Scalar, one resource.)
Matrix estimate_nodes(const cluster::ClusterHistory& history) {
  const cluster::Clustering& current = history.at(0).clustering;
  const std::size_t n = current.assignment.size();
  std::vector<std::size_t> modal(n);
  Matrix offsets;
  core::modal_offsets(history, kMPrime + 1, /*use_alpha=*/true, modal,
                      &offsets);
  Matrix out(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    out(i, 0) = current.centroids(modal[i], 0) + offsets(i, 0);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args = bench::harness_args(argc, argv, {"b", "eval-stride"});
  const std::size_t eval_stride = bench::eval_stride(args, 10);
  bench::banner("Fig. 10",
                "RMSE vs horizon h with sample-and-hold forecasting on "
                "different clustering methods (K = 3, B = 0.3)");

  const std::size_t k = 3;
  const std::vector<std::size_t> hs{1, 5, 10, 25, 50};

  Table table({"dataset", "resource", "h", "Proposed", "Min-distance",
               "Static (offline)"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    const trace::InMemoryTrace t = bench::trace_from_args(args, name);
    const std::size_t n = t.num_nodes();
    const std::size_t d = t.num_resources();

    collect::FleetCollector fleet(
        t, collect::make_policy_factory(collect::PolicyKind::kAdaptive,
                                        args.get_double("b", 0.3)));

    std::vector<cluster::DynamicClusterTracker> dyn;
    std::vector<cluster::StaticClustering> statik;
    std::vector<cluster::MinimumDistanceClustering> mindist;
    // Per resource, one history per method, M' + 1 deep (the tracker's
    // M = 1 needs only two steps).
    std::vector<cluster::ClusterHistory> hist_dyn, hist_stat, hist_min;
    for (std::size_t r = 0; r < d; ++r) {
      dyn.emplace_back(cluster::DynamicClusterOptions{.k = k}, 1 + r);
      statik.emplace_back(t, r, k, 100 + r);
      mindist.emplace_back(k, 200 + r);
      hist_dyn.emplace_back(kMPrime + 1);
      hist_stat.emplace_back(kMPrime + 1);
      hist_min.emplace_back(kMPrime + 1);
    }

    // acc[method][resource][h-index]
    std::vector<std::vector<std::vector<core::RmseAccumulator>>> acc(
        3, std::vector<std::vector<core::RmseAccumulator>>(
               d, std::vector<core::RmseAccumulator>(hs.size())));

    // Pending forecasts keyed by (target step, method, resource, h-index):
    // store the estimate made at decision time, score when target arrives.
    struct Pending {
      std::size_t target;
      std::size_t method;
      std::size_t resource;
      std::size_t h_index;
      Matrix estimate;
    };
    std::vector<Pending> pending;

    transport::CentralStore store(n, d);
    std::size_t scored = 0;
    for (std::size_t step = 0; step < t.num_steps(); ++step) {
      for (const auto& m : fleet.step(step)) store.apply(m);
      for (std::size_t r = 0; r < d; ++r) {
        Matrix& snapshot = hist_dyn[r].advance().values;
        snapshot.resize(n, 1);
        for (std::size_t i = 0; i < n; ++i) {
          snapshot(i, 0) = store.stored(i)[r];
        }
        dyn[r].update(hist_dyn[r]);
        hist_stat[r].push(snapshot, statik[r].at(snapshot));
        hist_min[r].push(snapshot, mindist[r].at(snapshot));

        if (step % eval_stride != 0 || step < kMPrime + 1) continue;
        for (std::size_t hi = 0; hi < hs.size(); ++hi) {
          if (step + hs[hi] >= t.num_steps()) continue;
          pending.push_back(
              {step + hs[hi], 0, r, hi, estimate_nodes(hist_dyn[r])});
          pending.push_back(
              {step + hs[hi], 1, r, hi, estimate_nodes(hist_min[r])});
          pending.push_back(
              {step + hs[hi], 2, r, hi, estimate_nodes(hist_stat[r])});
        }
      }
      // Score everything whose target step is now.
      for (const Pending& p : pending) {
        if (p.target != step) continue;
        acc[p.method][p.resource][p.h_index].add(
            core::rmse_step(sim::truth_at(t, step, p.resource, 1),
                            p.estimate));
        ++scored;
      }
      if (scored > 0 && scored % 4096 == 0) {
        pending.erase(std::remove_if(pending.begin(), pending.end(),
                                     [&](const Pending& p) {
                                       return p.target <= step;
                                     }),
                      pending.end());
      }
    }

    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t hi = 0; hi < hs.size(); ++hi) {
        table.add_row({name, trace::resource_name(r),
                       static_cast<double>(hs[hi]), acc[0][r][hi].value(),
                       acc[1][r][hi].value(), acc[2][r][hi].value()});
      }
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: Proposed best at small h; Static closes "
               "the gap at large h; Min-distance worst throughout.\n";
  return 0;
}
