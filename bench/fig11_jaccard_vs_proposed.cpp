// Fig. 11 — The paper's intersection-count similarity measure (eq. (10))
// vs the Jaccard index of [20] for re-indexing clusters over time, under
// sample-and-hold forecasting with per-node offsets.
//
// Expected shape: the proposed (unnormalized) similarity gives equal or
// lower RMSE at every horizon — it weights large clusters by node count,
// matching the RMSE objective.
#include <cmath>

#include "bench_util.hpp"

#include "core/metrics.hpp"
#include "sim/driver.hpp"

namespace {

using namespace resmon;

double resource_rmse(const trace::Trace& t, std::size_t step,
                     std::size_t resource, const Matrix& estimate) {
  double se = 0.0;
  for (std::size_t i = 0; i < t.num_nodes(); ++i) {
    const double e = estimate(i, resource) - t.value(i, step, resource);
    se += e * e;
  }
  return std::sqrt(se / static_cast<double>(t.num_nodes()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Fig. 11",
                "RMSE vs horizon: proposed similarity (eq. (10)) vs "
                "Jaccard index, sample-and-hold, K = 3");

  const std::vector<std::size_t> hs{1, 5, 10, 25, 50};
  Table table({"dataset", "resource", "h", "Proposed similarity",
               "Jaccard"},
              4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    trace::SyntheticProfile profile = bench::profile_from_args(args, name);
    const trace::InMemoryTrace t =
        trace::generate(profile, args.get_int("seed", 1));

    auto make_driver = [&](cluster::SimilarityKind similarity) {
      core::PipelineOptions o;
      o.max_frequency = 0.3;
      o.num_clusters = 3;
      o.similarity = similarity;
      o.forecaster = forecast::ForecasterKind::kSampleHold;
      o.schedule = {.initial_steps = 100, .retrain_interval = 288};
      o.seed = 1;
      o.num_threads = args.get_threads();
      return sim::Driver(t, o);
    };
    sim::Driver proposed =
        make_driver(cluster::SimilarityKind::kIntersection);
    sim::Driver jaccard = make_driver(cluster::SimilarityKind::kJaccard);

    const std::size_t d = t.num_resources();
    std::vector<std::vector<core::RmseAccumulator>> acc_p(
        d, std::vector<core::RmseAccumulator>(hs.size()));
    std::vector<std::vector<core::RmseAccumulator>> acc_j = acc_p;

    const std::size_t eval_stride =
        static_cast<std::size_t>(args.get_int("eval-stride", 10));
    for (std::size_t step = 0; step < t.num_steps(); ++step) {
      proposed.step();
      jaccard.step();
      if (step < 100 || step % eval_stride != 0) continue;
      for (std::size_t hi = 0; hi < hs.size(); ++hi) {
        if (step + hs[hi] >= t.num_steps()) continue;
        const Matrix fp = proposed.pipeline().forecast_all(hs[hi]);
        const Matrix fj = jaccard.pipeline().forecast_all(hs[hi]);
        for (std::size_t r = 0; r < d; ++r) {
          acc_p[r][hi].add(resource_rmse(t, step + hs[hi], r, fp));
          acc_j[r][hi].add(resource_rmse(t, step + hs[hi], r, fj));
        }
      }
    }

    for (std::size_t r = 0; r < d; ++r) {
      for (std::size_t hi = 0; hi < hs.size(); ++hi) {
        table.add_row({name, trace::resource_name(r),
                       static_cast<double>(hs[hi]), acc_p[r][hi].value(),
                       acc_j[r][hi].value()});
      }
    }
  }
  bench::emit(table, args);
  std::cout << "\nExpected shape: proposed similarity <= Jaccard (better "
               "or similar) on every row.\n";
  return 0;
}
