#include "collect/fleet_collector.hpp"

#include <utility>

#include "collect/deadband_transmitter.hpp"

namespace resmon::collect {

namespace {

/// Trivial policy that transmits every step; used as the B = 1 reference.
class AlwaysTransmitter final : public TransmitPolicy {
 public:
  bool decide(std::size_t /*t*/, std::span<const double> /*x*/) override {
    ++decisions_;
    ++transmissions_;
    return true;
  }
  double frequency_constraint() const override { return 1.0; }
  std::uint64_t transmissions() const override { return transmissions_; }
  std::uint64_t decisions() const override { return decisions_; }

 private:
  std::uint64_t transmissions_ = 0;
  std::uint64_t decisions_ = 0;
};

}  // namespace

FleetCollector::FleetCollector(
    const trace::Trace& trace,
    const std::function<std::unique_ptr<TransmitPolicy>()>& make_policy,
    obs::MetricsRegistry* metrics)
    : trace_(trace), registry_(metrics) {
  RESMON_REQUIRE(trace.num_nodes() > 0, "FleetCollector needs >= 1 node");
  policies_.reserve(trace.num_nodes());
  for (std::size_t i = 0; i < trace.num_nodes(); ++i) {
    policies_.push_back(make_policy());
    RESMON_REQUIRE(policies_.back() != nullptr,
                   "policy factory returned nullptr");
  }
  decisions_total_ = &registry_->counter(
      "resmon_collect_decisions_total",
      "Per-node transmission decisions evaluated (N per step)");
  sends_total_ =
      &registry_->counter("resmon_collect_sends_total",
                          "Measurements pushed to the uplink (beta = 1)");
  link_bytes_ = &registry_->gauge(
      "resmon_collect_link_bytes_sent",
      "Cumulative wire bytes the uplink has carried (exact frame sizes)");
}

std::span<const transport::MeasurementMessage> FleetCollector::step(
    std::size_t t) {
  RESMON_REQUIRE(t == next_step_,
                 "FleetCollector::step must be called with consecutive t");
  RESMON_REQUIRE(t < trace_.num_steps(), "step beyond end of the trace");
  ++next_step_;

  const std::size_t n = policies_.size();
  const std::size_t d = trace_.num_resources();
  sent_.clear();
  // x_{i,t} is read into inline values (d <= kInline), so a node's step
  // allocates nothing.
  transport::MeasurementValues x;
  x.resize_for_overwrite(d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < d; ++r) x[r] = trace_.value(i, t, r);
    if (!policies_[i]->decide(t, x)) continue;
    sent_.push_back({.node = i, .step = t, .values = x});
    bytes_sent_ += sent_.back().wire_size();
  }
  decisions_total_->inc(n);
  sends_total_->inc(sent_.size());
  link_bytes_->set(static_cast<double>(bytes_sent_));
  return sent_;
}

double FleetCollector::average_actual_frequency() const {
  double s = 0.0;
  for (const auto& p : policies_) s += p->actual_frequency();
  return s / static_cast<double>(policies_.size());
}

std::function<std::unique_ptr<TransmitPolicy>()> make_policy_factory(
    PolicyKind kind, double max_frequency, AdaptiveOptions adaptive) {
  switch (kind) {
    case PolicyKind::kAdaptive: {
      adaptive.max_frequency = max_frequency;
      return [adaptive]() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<AdaptiveTransmitter>(adaptive);
      };
    }
    case PolicyKind::kUniform:
      return [max_frequency]() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<UniformTransmitter>(max_frequency);
      };
    case PolicyKind::kAlways:
      return []() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<AlwaysTransmitter>();
      };
    case PolicyKind::kDeadband: {
      DeadbandOptions opts;
      opts.target_frequency = max_frequency;
      return [opts]() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<DeadbandTransmitter>(opts);
      };
    }
  }
  throw InvalidArgument("unknown policy kind");
}

PolicyKind policy_kind_from_string(const std::string& name,
                                   const std::string& context) {
  if (name == "adaptive") return PolicyKind::kAdaptive;
  if (name == "uniform") return PolicyKind::kUniform;
  if (name == "always") return PolicyKind::kAlways;
  if (name == "deadband") return PolicyKind::kDeadband;
  throw InvalidArgument(context + ": unknown policy '" + name +
                        "' (want adaptive|uniform|always|deadband)");
}

}  // namespace resmon::collect
