// Fig. 10 — Time-averaged RMSE vs forecast horizon h using sample-and-hold
// forecasting (K = 3) on top of the different clustering methods: the
// proposed dynamic clustering, the minimum-distance baseline and the
// offline static baseline, plus the stddev bound.
//
// All methods use the same estimation rule (eq. (2)): held centroid of the
// node's modal cluster over the last M'+1 steps, plus the alpha-scaled
// per-node offset of eq. (12).
//
// Expected shape: proposed best at short horizons; static (offline)
// approaches it at long horizons; minimum-distance worst.
#include <cmath>

#include "bench_util.hpp"

#include "cluster/baselines.hpp"
#include "collect/fleet_collector.hpp"
#include "core/estimation.hpp"
#include "core/metrics.hpp"

namespace {

using namespace resmon;

constexpr std::size_t kMPrime = 5;

/// Sample-and-hold estimate for every node from an offset tracker: held
/// centroid of the modal cluster + eq. (12) offset. (Scalar, one resource.)
std::vector<double> estimate_nodes(const core::OffsetTracker& tracker,
                                   const cluster::Clustering& current,
                                   std::size_t n) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = tracker.modal_cluster(i);
    out[i] = current.centroids(j, 0) + tracker.offset(i, j)[0];
  }
  return out;
}

double rmse_against(const trace::Trace& t, std::size_t step,
                    std::size_t resource, const std::vector<double>& est) {
  double se = 0.0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    const double e = est[i] - t.value(i, step, resource);
    se += e * e;
  }
  return std::sqrt(se / static_cast<double>(t.num_nodes()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Fig. 10",
                "RMSE vs horizon h with sample-and-hold forecasting on "
                "different clustering methods (K = 3, B = 0.3)");

  const std::size_t k = 3;
  const std::vector<std::size_t> hs{1, 5, 10, 25, 50};

  Table table({"dataset", "resource", "h", "Proposed", "Min-distance",
               "Static (offline)"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    trace::SyntheticProfile profile = bench::profile_from_args(args, name);
    const trace::InMemoryTrace t =
        trace::generate(profile, args.get_int("seed", 1));
    const std::size_t n = t.num_nodes();
    const std::size_t d = t.num_resources();

    collect::FleetCollector fleet(
        t, collect::make_policy_factory(collect::PolicyKind::kAdaptive,
                                        args.get_double("b", 0.3)));

    std::vector<cluster::DynamicClusterTracker> dyn;
    std::vector<cluster::StaticClustering> statik;
    std::vector<cluster::MinimumDistanceClustering> mindist;
    std::vector<core::OffsetTracker> off_dyn, off_stat, off_min;
    for (std::size_t r = 0; r < d; ++r) {
      dyn.emplace_back(cluster::DynamicClusterOptions{.k = k}, 1 + r);
      statik.emplace_back(t, r, k, 100 + r);
      mindist.emplace_back(k, 200 + r);
      off_dyn.emplace_back(kMPrime, k);
      off_stat.emplace_back(kMPrime, k);
      off_min.emplace_back(kMPrime, k);
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
      std::vector<double> estimate;
    };
    std::vector<Pending> pending;

    const std::size_t eval_stride =
        static_cast<std::size_t>(args.get_int("eval-stride", 10));
    transport::CentralStore store(n, d);
    std::size_t scored = 0;
    for (std::size_t step = 0; step < t.num_steps(); ++step) {
      for (const auto& m : fleet.step(step)) store.apply(m);
      for (std::size_t r = 0; r < d; ++r) {
        Matrix snapshot(n, 1);
        for (std::size_t i = 0; i < n; ++i) {
          snapshot(i, 0) = store.stored(i)[r];
        }
        const cluster::Clustering& cd = dyn[r].update(snapshot);
        const cluster::Clustering cs = statik[r].at(snapshot);
        const cluster::Clustering cm = mindist[r].at(snapshot);
        off_dyn[r].push(cd, snapshot);
        off_stat[r].push(cs, snapshot);
        off_min[r].push(cm, snapshot);

        if (step % eval_stride != 0 || step < kMPrime + 1) continue;
        for (std::size_t hi = 0; hi < hs.size(); ++hi) {
          if (step + hs[hi] >= t.num_steps()) continue;
          pending.push_back({step + hs[hi], 0, r, hi,
                             estimate_nodes(off_dyn[r], cd, n)});
          pending.push_back({step + hs[hi], 1, r, hi,
                             estimate_nodes(off_min[r], cm, n)});
          pending.push_back({step + hs[hi], 2, r, hi,
                             estimate_nodes(off_stat[r], cs, n)});
        }
      }
      // Score everything whose target step is now.
      for (const Pending& p : pending) {
        if (p.target != step) continue;
        acc[p.method][p.resource][p.h_index].add(
            rmse_against(t, step, p.resource, p.estimate));
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
