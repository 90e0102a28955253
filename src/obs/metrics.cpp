#include "obs/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace resmon::obs {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  return std::all_of(name.begin() + 1, name.end(), [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  });
}

/// Shortest round-trip decimal rendering of a double ("1" for 1.0, "+Inf"
/// for infinity), so expositions are compact and stable.
std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shorter %g form when it round-trips exactly.
  char shorter[64];
  std::snprintf(shorter, sizeof(shorter), "%g", v);
  double back = 0.0;
  std::sscanf(shorter, "%lf", &back);
  return back == v ? std::string(shorter) : std::string(buf);
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
}

/// Splice one extra label (e.g. le="...") into an already-rendered set.
std::string labels_with(const std::string& rendered, const std::string& key,
                        const std::string& value) {
  std::string extra = key + "=\"";
  append_escaped(extra, value);
  extra += '"';
  if (rendered.empty()) return "{" + extra + "}";
  std::string out = rendered.substr(0, rendered.size() - 1);  // drop '}'
  out += ",";
  out += extra;
  out += "}";
  return out;
}

}  // namespace

void Gauge::add(double d) {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  RESMON_REQUIRE(!bounds_.empty() &&
                     std::is_sorted(bounds_.begin(), bounds_.end()) &&
                     std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                         bounds_.end(),
                 "histogram bounds must be non-empty, strictly increasing");
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  const std::size_t i = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  RESMON_REQUIRE(i <= bounds_.size(), "histogram bucket index out of range");
  return buckets_[i].load(std::memory_order_relaxed);
}

std::vector<double> duration_seconds_buckets() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0};
}

std::vector<double> duration_ms_buckets() {
  return {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0};
}

std::string MetricsRegistry::render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    append_escaped(out, v);
    out += '"';
  }
  out += "}";
  return out;
}

MetricsRegistry::Family& MetricsRegistry::family(const std::string& name,
                                                 const std::string& help,
                                                 Kind kind) {
  RESMON_REQUIRE(valid_metric_name(name),
                 "metric name must match [a-zA-Z_:][a-zA-Z0-9_:]*");
  auto [it, inserted] =
      families_.try_emplace(name, Family{kind, help, {}, {}, {}});
  if (!inserted && it->second.kind != kind) {
    throw InvalidArgument("metric '" + name +
                          "' already registered as a different type");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help,
                                  const Labels& labels) {
  MutexLock lock(mutex_);
  Family& fam = family(name, help, Kind::kCounter);
  auto [it, inserted] =
      fam.counters.try_emplace(render_labels(labels), nullptr);
  if (inserted) it->second = std::make_unique<Counter>();
  return *it->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help,
                              const Labels& labels) {
  MutexLock lock(mutex_);
  Family& fam = family(name, help, Kind::kGauge);
  auto [it, inserted] = fam.gauges.try_emplace(render_labels(labels), nullptr);
  if (inserted) it->second = std::make_unique<Gauge>();
  return *it->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> bounds,
                                      const Labels& labels) {
  MutexLock lock(mutex_);
  Family& fam = family(name, help, Kind::kHistogram);
  auto [it, inserted] =
      fam.histograms.try_emplace(render_labels(labels), nullptr);
  if (inserted) it->second = std::make_unique<Histogram>(std::move(bounds));
  return *it->second;
}

std::optional<double> MetricsRegistry::value(const std::string& name,
                                             const Labels& labels) const {
  MutexLock lock(mutex_);
  const auto fam = families_.find(name);
  if (fam == families_.end()) return std::nullopt;
  const std::string key = render_labels(labels);
  if (const auto it = fam->second.counters.find(key);
      it != fam->second.counters.end()) {
    return static_cast<double>(it->second->value());
  }
  if (const auto it = fam->second.gauges.find(key);
      it != fam->second.gauges.end()) {
    return it->second->value();
  }
  return std::nullopt;
}

std::vector<Sample> MetricsRegistry::snapshot() const {
  MutexLock lock(mutex_);
  std::vector<Sample> out;
  for (const auto& [name, fam] : families_) {
    for (const auto& [labels, c] : fam.counters) {
      out.push_back({name, labels, static_cast<double>(c->value())});
    }
    for (const auto& [labels, g] : fam.gauges) {
      out.push_back({name, labels, g->value()});
    }
    for (const auto& [labels, h] : fam.histograms) {
      out.push_back({name + "_sum", labels, h->sum()});
      out.push_back(
          {name + "_count", labels, static_cast<double>(h->count())});
    }
  }
  return out;
}

void MetricsRegistry::render_text(std::ostream& out) const {
  MutexLock lock(mutex_);
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) out << "# HELP " << name << " " << fam.help << "\n";
    const char* type = fam.kind == Kind::kCounter   ? "counter"
                       : fam.kind == Kind::kGauge   ? "gauge"
                                                    : "histogram";
    out << "# TYPE " << name << " " << type << "\n";
    for (const auto& [labels, c] : fam.counters) {
      out << name << labels << " " << c->value() << "\n";
    }
    for (const auto& [labels, g] : fam.gauges) {
      out << name << labels << " " << format_double(g->value()) << "\n";
    }
    for (const auto& [labels, h] : fam.histograms) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < h->bounds().size(); ++i) {
        cumulative += h->bucket_count(i);
        out << name << "_bucket"
            << labels_with(labels, "le", format_double(h->bounds()[i])) << " "
            << cumulative << "\n";
      }
      cumulative += h->bucket_count(h->bounds().size());
      out << name << "_bucket" << labels_with(labels, "le", "+Inf") << " "
          << cumulative << "\n";
      out << name << "_sum" << labels << " " << format_double(h->sum())
          << "\n";
      out << name << "_count" << labels << " " << h->count() << "\n";
    }
  }
}

std::string MetricsRegistry::render_text() const {
  std::ostringstream out;
  render_text(out);
  return out.str();
}

RegistryRef::RegistryRef(MetricsRegistry* given, const std::string& exclusive,
                         const Labels& labels)
    : owned_(given == nullptr ? std::make_unique<MetricsRegistry>() : nullptr),
      registry_(given == nullptr ? owned_.get() : given) {
  RESMON_REQUIRE(exclusive.empty() ||
                     !registry_->value(exclusive, labels).has_value(),
                 "metrics registry already holds " + exclusive +
                     MetricsRegistry::render_labels(labels) +
                     " of another instance; give each its own registry");
}

}  // namespace resmon::obs
