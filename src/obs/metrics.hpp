// resmon::obs — lock-cheap metrics for the whole monitoring pipeline.
//
// A MetricsRegistry owns named metric instances; components register the
// series they emit once (under the registry mutex) and then update them on
// the hot path with plain relaxed atomics — safe under the ThreadPool's
// parallel stages without any per-update locking. Three metric types cover
// everything the pipeline produces:
//
//   Counter    monotonically increasing u64 (frames, sends, fits, ...)
//   Gauge      settable double (queue backlog, match weight, RMSE, ...)
//   Histogram  fixed-bucket distribution (slot wait, fit seconds, ...)
//
// Snapshot order is deterministic: render_text() and snapshot() emit
// families sorted by metric name, series within a family sorted by their
// rendered label string — never by registration order — so two registries
// that hold the same series produce byte-identical expositions no matter
// what order components registered them in or how threads interleaved
// (test_obs asserts this byte-for-byte). Two caveats define the contract's
// edges: a family's help text is fixed by its first registration, and label
// keys render in the order the caller listed them, so a series must always
// be registered with one canonical key order. render_text() is the
// Prometheus text exposition format (text/plain; version=0.0.4), served by
// net::Controller's metrics endpoint and written by the --metrics-out CLI
// path.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"

namespace resmon::obs {

/// Label set of one series: (key, value) pairs, e.g. {{"view", "0"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. All operations are wait-free relaxed atomics.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Settable double gauge; add() is a CAS loop (contention is rare — gauges
/// are owned by one stage or labeled per view/model).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d);
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with cumulative Prometheus semantics: bucket i
/// counts observations <= bounds[i], plus an implicit +Inf bucket.
class Histogram {
 public:
  /// `bounds` must be strictly increasing (checked at registration).
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket `i` alone (0 .. bounds().size(); the last index is
  /// the +Inf overflow bucket). Not cumulative.
  std::uint64_t bucket_count(std::size_t i) const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds for durations measured in seconds.
std::vector<double> duration_seconds_buckets();

/// Default histogram bounds for durations measured in milliseconds.
std::vector<double> duration_ms_buckets();

/// Flat view of one series for programmatic consumers (tests, adapters).
struct Sample {
  std::string name;
  std::string labels;  ///< rendered, e.g. `{view="0"}` ("" when unlabeled)
  double value = 0.0;
};

/// Thread-safe registry of named metrics.
///
// Registration is idempotent: asking for an existing (name, labels) series
// returns the same instance, so N components can share one aggregate
// counter simply by registering the same name (the help text of the first
// registration wins). Re-registering a name as a different metric type
// throws InvalidArgument. References returned by
// counter()/gauge()/histogram() stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, const Labels& labels = {});

  /// Value of a counter or gauge series, if registered (for tests and the
  /// StageTimers adapter). Histograms are not scalar; read them via
  /// snapshot() or render_text().
  std::optional<double> value(const std::string& name,
                              const Labels& labels = {}) const;

  /// All counter/gauge series plus histogram _sum/_count expansions, in
  /// the deterministic exposition order.
  std::vector<Sample> snapshot() const;

  /// Prometheus text exposition (text/plain; version=0.0.4).
  std::string render_text() const;
  void render_text(std::ostream& out) const;

  /// Render `labels` the way the exposition does: `{k="v",...}` with
  /// backslash/quote/newline escaping, "" for an empty set.
  static std::string render_labels(const Labels& labels);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Family {
    Kind kind;
    std::string help;
    // Rendered label string -> instance; map order drives exposition order.
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
  };

  Family& family(const std::string& name, const std::string& help, Kind kind)
      RESMON_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, Family> families_ RESMON_GUARDED_BY(mutex_);
};

/// The registry a component counts into: the caller's when one is given,
/// else a private one the component owns. Either way every series the
/// component registers exists, so its accessors read their counters'
/// values and a scrape of the caller's registry reads the same numbers.
class RegistryRef {
 public:
  /// A nonempty `exclusive` names a series (with `labels`) that one
  /// component instance registers: a given registry that already holds it
  /// is rejected with InvalidArgument, since a second instance counting
  /// into it would merge its tallies into the first one's accessors.
  explicit RegistryRef(MetricsRegistry* given,
                       const std::string& exclusive = {},
                       const Labels& labels = {});

  MetricsRegistry& operator*() const { return *registry_; }
  MetricsRegistry* operator->() const { return registry_; }
  MetricsRegistry* get() const { return registry_; }
  /// True when the caller supplied the registry (operators can read it).
  bool shared() const { return owned_ == nullptr; }

 private:
  std::unique_ptr<MetricsRegistry> owned_;
  MetricsRegistry* registry_;
};

}  // namespace resmon::obs
