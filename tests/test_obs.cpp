// resmon::obs — metrics registry, exposition format, and trace buffer.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_log.hpp"

namespace {

using namespace resmon;
using obs::Labels;
using obs::MetricsRegistry;

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  obs::Gauge g;
  g.set(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Registry, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  obs::Counter& a = reg.counter("x_total", "help");
  obs::Counter& b = reg.counter("x_total", "help");
  EXPECT_EQ(&a, &b);
  // Same name, different labels = a different series in the same family.
  obs::Counter& c = reg.counter("x_total", "help", {{"view", "0"}});
  EXPECT_NE(&a, &c);
  a.inc(3);
  c.inc(5);
  EXPECT_EQ(reg.value("x_total"), 3.0);
  EXPECT_EQ(reg.value("x_total", {{"view", "0"}}), 5.0);
}

TEST(Registry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x_total", "help");
  EXPECT_THROW(reg.gauge("x_total", "help"), InvalidArgument);
  EXPECT_THROW(reg.histogram("x_total", "help", {1.0}), InvalidArgument);
}

TEST(Registry, InvalidMetricNameThrows) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("9starts_with_digit", "h"), InvalidArgument);
  EXPECT_THROW(reg.counter("has space", "h"), InvalidArgument);
  EXPECT_NO_THROW(reg.counter("ok_name:subsystem_total", "h"));
}

TEST(Registry, ValueOfUnregisteredSeriesIsEmpty) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.value("nope").has_value());
  reg.counter("x_total", "h");
  EXPECT_FALSE(reg.value("x_total", {{"view", "0"}}).has_value());
}

TEST(Registry, ConcurrentUpdatesFromThreadPool) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("hits_total", "h");
  obs::Gauge& g = reg.gauge("level", "h");
  obs::Histogram& h = reg.histogram("dist", "h", {0.5});
  constexpr std::size_t kItems = 10000;
  ThreadPool pool(4);
  run_chunked(&pool, kItems, 64,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  c.inc();
                  g.add(1.0);
                  h.observe(i % 2 == 0 ? 0.25 : 0.75);
                }
              });
  EXPECT_EQ(c.value(), kItems);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kItems));
  EXPECT_EQ(h.count(), kItems);
  EXPECT_EQ(h.bucket_count(0), kItems / 2);  // <= 0.5
  EXPECT_EQ(h.bucket_count(1), kItems / 2);  // +Inf overflow
}

TEST(Histogram, BucketsAreCumulativeInExposition) {
  MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat_seconds", "h", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(0.5);
  h.observe(10.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 11.05);

  const std::string text = reg.render_text();
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 11.05\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 4\n"), std::string::npos);
}

TEST(Histogram, NonIncreasingBoundsThrow) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad", "h", {1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(reg.histogram("bad2", "h", {2.0, 1.0}), InvalidArgument);
  EXPECT_THROW(reg.histogram("bad3", "h", {}), InvalidArgument);
}

TEST(Exposition, HelpTypeAndDeterministicOrder) {
  // Register in non-alphabetical order with shuffled label sets; the
  // exposition must come out sorted by name, then label string.
  MetricsRegistry reg;
  reg.gauge("zeta", "last metric").set(1.0);
  reg.counter("alpha_total", "first metric", {{"view", "1"}}).inc(2);
  reg.counter("alpha_total", "first metric", {{"view", "0"}}).inc(1);

  const std::string text = reg.render_text();
  const std::string expected =
      "# HELP alpha_total first metric\n"
      "# TYPE alpha_total counter\n"
      "alpha_total{view=\"0\"} 1\n"
      "alpha_total{view=\"1\"} 2\n"
      "# HELP zeta last metric\n"
      "# TYPE zeta gauge\n"
      "zeta 1\n";
  EXPECT_EQ(text, expected);

  // Re-rendering is byte-identical.
  EXPECT_EQ(reg.render_text(), expected);
}

TEST(Exposition, RegistrationOrderNeverLeaksIntoTheExposition) {
  // The header's determinism contract: two registries holding the same
  // series — registered in opposite orders, histogram included — render
  // byte-identical expositions. This is what makes diffing two runs'
  // --metrics-out files (and the docs drift test) meaningful.
  const auto populate = [](MetricsRegistry& reg, bool reversed) {
    const auto series = [&](int i) {
      switch (reversed ? 2 - i : i) {
        case 0:
          reg.counter("mid_total", "counts", {{"node", "0"}}).inc(3);
          break;
        case 1:
          reg.histogram("a_hist", "timings", {1.0, 5.0}).observe(2.5);
          break;
        default:
          reg.counter("mid_total", "counts", {{"node", "1"}}).inc(9);
          reg.gauge("z_gauge", "level").set(4.5);
          break;
      }
    };
    for (int i = 0; i < 3; ++i) series(i);
  };
  MetricsRegistry forward;
  MetricsRegistry backward;
  populate(forward, false);
  populate(backward, true);
  EXPECT_EQ(forward.render_text(), backward.render_text());
  EXPECT_FALSE(forward.render_text().empty());
}

TEST(Exposition, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.counter("x_total", "h", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = reg.render_text();
  EXPECT_NE(text.find("x_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(Exposition, SnapshotMatchesScalars) {
  MetricsRegistry reg;
  reg.counter("a_total", "h").inc(7);
  reg.gauge("b", "h").set(2.5);
  reg.histogram("c", "h", {1.0}).observe(0.5);
  const std::vector<obs::Sample> samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 4u);  // a_total, b, c_sum, c_count
  EXPECT_EQ(samples[0].name, "a_total");
  EXPECT_DOUBLE_EQ(samples[0].value, 7.0);
  EXPECT_EQ(samples[1].name, "b");
  EXPECT_DOUBLE_EQ(samples[1].value, 2.5);
  EXPECT_EQ(samples[2].name, "c_sum");
  EXPECT_EQ(samples[3].name, "c_count");
  EXPECT_DOUBLE_EQ(samples[3].value, 1.0);
}

TEST(TraceBuffer, RecordsAndDumpsJsonl) {
  obs::TraceBuffer buf(8);
  const auto t0 = std::chrono::steady_clock::now();
  buf.record("stage.a", t0, t0 + std::chrono::microseconds(150));
  buf.record("stage.b", t0, t0 + std::chrono::microseconds(5));
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.recorded(), 2u);
  EXPECT_EQ(buf.dropped(), 0u);

  const std::vector<obs::TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "stage.a");
  EXPECT_EQ(events[0].dur_us, 150u);
  EXPECT_EQ(events[0].tid, events[1].tid);  // same recording thread

  std::ostringstream out;
  buf.dump_jsonl(out);
  const std::string line1 = out.str().substr(0, out.str().find('\n'));
  EXPECT_NE(line1.find("\"name\":\"stage.a\""), std::string::npos);
  EXPECT_NE(line1.find("\"dur_us\":150"), std::string::npos);
}

TEST(TraceBuffer, RingOverwritesOldestAndCountsDrops) {
  obs::TraceBuffer buf(4);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    // Appended piecewise: GCC 12 reports a false -Wrestrict on the
    // inlined `"e" + std::string` of a Release build.
    std::string name = "e";
    name += std::to_string(i);
    buf.record(name, t0, t0 + std::chrono::microseconds(i));
  }
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.recorded(), 10u);
  EXPECT_EQ(buf.dropped(), 6u);
  const std::vector<obs::TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first snapshot of the last four events.
  EXPECT_EQ(events.front().name, "e6");
  EXPECT_EQ(events.back().name, "e9");
}

TEST(TraceBuffer, AssignsDenseThreadIds) {
  obs::TraceBuffer buf(16);
  const auto t0 = std::chrono::steady_clock::now();
  buf.record("main", t0, t0);
  std::thread other(
      [&] { buf.record("worker", t0, t0); });
  other.join();
  const std::vector<obs::TraceEvent> events = buf.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tid, 0u);
  EXPECT_EQ(events[1].tid, 1u);
}

TEST(ScopedSpan, RecordsIntoBufferAndGauge) {
  obs::TraceBuffer buf(4);
  obs::Gauge seconds;
  {
    obs::ScopedSpan span(&buf, "work", &seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.snapshot()[0].name, "work");
  EXPECT_GE(buf.snapshot()[0].dur_us, 1000u);
  EXPECT_GT(seconds.value(), 0.0);

  // Accumulation: a second span adds to the same gauge.
  const double first = seconds.value();
  {
    obs::ScopedSpan span(&buf, "work", &seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(seconds.value(), first);
}

TEST(ScopedSpan, StopIsIdempotentAndNullSinksAreFine) {
  obs::TraceBuffer buf(4);
  obs::ScopedSpan span(&buf, "once");
  const double elapsed = span.stop();
  EXPECT_GE(elapsed, 0.0);
  EXPECT_DOUBLE_EQ(span.stop(), elapsed);  // second stop: no new event
  EXPECT_EQ(buf.size(), 1u);

  // Both sinks null: pure timer, must not crash.
  obs::ScopedSpan timer(nullptr, "untracked", nullptr);
  EXPECT_GE(timer.stop(), 0.0);
}

}  // namespace
