#include "sim/report.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "trace/synthetic.hpp"

namespace resmon::sim {
namespace {

Driver make_driver(const trace::Trace& t) {
  core::PipelineOptions o;
  o.num_clusters = 3;
  o.schedule = {.initial_steps = 30, .retrain_interval = 50};
  return Driver(t, o);
}

TEST(Report, RequiresAtLeastOneStep) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 10;
  p.num_steps = 50;
  const trace::InMemoryTrace t = trace::generate(p, 1);
  const Driver driver = make_driver(t);
  EXPECT_THROW(make_report(driver), InvalidArgument);
}

TEST(Report, SummarizesEveryClusterOfEveryView) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 12;
  p.num_steps = 60;
  const trace::InMemoryTrace t = trace::generate(p, 2);
  Driver driver = make_driver(t);
  driver.run(60);
  const MonitoringReport report = make_report(driver);

  EXPECT_EQ(report.step, 59u);
  EXPECT_EQ(report.num_nodes, 12u);
  EXPECT_NEAR(report.average_frequency, 0.3, 0.05);
  EXPECT_GT(report.bytes_sent, 0u);
  EXPECT_EQ(report.messages_dropped, 0u);
  // 2 resources x 3 clusters.
  ASSERT_EQ(report.clusters.size(), 6u);
  for (std::size_t v = 0; v < 2; ++v) {
    std::size_t total = 0;
    for (const ClusterSummary& c : report.clusters) {
      if (c.view != v) continue;
      total += c.size;
      EXPECT_GE(c.centroid, 0.0);
      EXPECT_LE(c.centroid, 1.0);
      EXPECT_FALSE(c.model.empty());
    }
    EXPECT_EQ(total, 12u);  // cluster sizes partition the fleet
  }
}

TEST(Report, ModelNamesReflectTrainingState) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 10;
  p.num_steps = 100;
  const trace::InMemoryTrace t = trace::generate(p, 3);
  core::PipelineOptions o;
  o.num_clusters = 2;
  o.forecaster = forecast::ForecasterKind::kArima;
  o.schedule = {.initial_steps = 50, .retrain_interval = 200};
  Driver driver(t, o);

  driver.run(10);  // before the initial fit
  for (const ClusterSummary& c : make_report(driver).clusters) {
    EXPECT_EQ(c.model, "(collecting)");
    EXPECT_EQ(c.fits, 0u);
  }
  driver.run(60);  // past the initial fit
  for (const ClusterSummary& c : make_report(driver).clusters) {
    EXPECT_NE(c.model, "(collecting)");
    EXPECT_GE(c.fits, 1u);
  }
}

TEST(Report, PrintsAllClusters) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 10;
  p.num_steps = 40;
  const trace::InMemoryTrace t = trace::generate(p, 4);
  Driver driver = make_driver(t);
  driver.run(40);
  std::ostringstream os;
  make_report(driver).print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("monitoring report @ step 39"), std::string::npos);
  EXPECT_NE(out.find("CPU"), std::string::npos);
  EXPECT_NE(out.find("Memory"), std::string::npos);
}

TEST(Report, CountsDroppedMessages) {
  trace::SyntheticProfile p = trace::google_profile();
  p.num_nodes = 10;
  p.num_steps = 80;
  const trace::InMemoryTrace t = trace::generate(p, 5);
  core::PipelineOptions o;
  o.num_clusters = 2;
  o.schedule = {.initial_steps = 30, .retrain_interval = 50};
  Driver reliable(t, o);
  reliable.run(80);
  Driver driver(t, o, faultnet::FaultSpec::parse("drop=0.3;seed=6"));
  driver.run(80);
  const MonitoringReport report = make_report(driver);
  EXPECT_GT(report.messages_dropped, 0u);
  // Senders pay for dropped messages: policies never see delivery, so the
  // fleet sends exactly what it sends over a reliable uplink.
  EXPECT_EQ(report.bytes_sent, make_report(reliable).bytes_sent);
}

}  // namespace
}  // namespace resmon::sim
