#include "sim/report.hpp"

#include <ostream>

#include "common/table.hpp"
#include "trace/trace.hpp"

namespace resmon::sim {

MonitoringReport make_report(const Driver& driver) {
  const core::MonitoringPipeline& pipeline = driver.pipeline();
  RESMON_REQUIRE(pipeline.current_step() >= 1,
                 "make_report before any pipeline step");
  MonitoringReport report;
  report.step = pipeline.current_step() - 1;
  report.num_nodes = driver.trace().num_nodes();
  report.average_frequency = driver.collector().average_actual_frequency();
  report.bytes_sent = driver.collector().bytes_sent();
  if (driver.faults() != nullptr) {
    report.messages_dropped = driver.faults()->messages_dropped();
  }

  const std::size_t k = pipeline.options().num_clusters;
  for (std::size_t v = 0; v < pipeline.num_views(); ++v) {
    const cluster::Clustering& clustering =
        pipeline.history(v).at(0).clustering;
    std::vector<std::size_t> sizes(k, 0);
    for (const std::size_t a : clustering.assignment) ++sizes[a];
    for (std::size_t j = 0; j < k; ++j) {
      ClusterSummary summary;
      summary.view = v;
      summary.cluster = j;
      summary.size = sizes[j];
      summary.centroid = clustering.centroids(j, 0);
      const forecast::ManagedForecaster& model = pipeline.model(v, j);
      summary.forecast_h1 = model.forecast(1);
      summary.model =
          model.ready() ? model.model().name() : "(collecting)";
      summary.fits = model.fits_completed();
      report.clusters.push_back(std::move(summary));
    }
  }
  return report;
}

void MonitoringReport::print(std::ostream& os) const {
  os << "monitoring report @ step " << step << ": " << num_nodes
     << " nodes, avg transmission frequency " << average_frequency << ", "
     << bytes_sent << " bytes on the wire";
  if (messages_dropped > 0) {
    os << " (" << messages_dropped << " messages lost)";
  }
  os << "\n";
  Table table({"resource", "cluster", "nodes", "centroid", "forecast h+1",
               "model", "fits"});
  for (const ClusterSummary& c : clusters) {
    table.add_row({trace::resource_name(c.view),
                   static_cast<double>(c.cluster + 1),
                   static_cast<double>(c.size), c.centroid, c.forecast_h1,
                   c.model, static_cast<double>(c.fits)});
  }
  table.print(os);
}

}  // namespace resmon::sim
