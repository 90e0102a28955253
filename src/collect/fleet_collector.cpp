#include "collect/fleet_collector.hpp"

#include <algorithm>

#include "collect/adaptive_transmitter.hpp"
#include "collect/deadband_transmitter.hpp"
#include "common/thread_pool.hpp"

namespace resmon::collect {

namespace {

/// Chunk grain of the parallel per-node policy loop. Policy decisions write
/// disjoint per-node state, so the grain only balances task overhead against
/// load spread; it does not affect results.
constexpr std::size_t kNodeGrain = 64;

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

std::vector<std::unique_ptr<MeasurementSource>> sources_over_trace(
    const trace::Trace& trace) {
  std::vector<std::unique_ptr<MeasurementSource>> sources;
  sources.reserve(trace.num_nodes());
  for (std::size_t i = 0; i < trace.num_nodes(); ++i) {
    sources.push_back(std::make_unique<TraceSource>(trace, i));
  }
  return sources;
}

}  // namespace

FleetCollector::FleetCollector(
    const trace::Trace& trace,
    const std::function<std::unique_ptr<TransmitPolicy>()>& make_policy,
    ThreadPool* pool, obs::MetricsRegistry* metrics)
    : FleetCollector(sources_over_trace(trace), make_policy, pool, metrics) {}

FleetCollector::FleetCollector(
    std::vector<std::unique_ptr<MeasurementSource>> sources,
    const std::function<std::unique_ptr<TransmitPolicy>()>& make_policy,
    ThreadPool* pool, obs::MetricsRegistry* metrics)
    : sources_(std::move(sources)), pool_(pool) {
  RESMON_REQUIRE(!sources_.empty(), "FleetCollector needs >= 1 source");
  for (const auto& source : sources_) {
    RESMON_REQUIRE(source != nullptr, "null MeasurementSource");
    RESMON_REQUIRE(
        source->num_resources() == sources_.front()->num_resources(),
        "MeasurementSources disagree on num_resources");
  }
  num_steps_ = MeasurementSource::unbounded();
  for (const auto& source : sources_) {
    num_steps_ = std::min(num_steps_, source->num_steps());
  }
  policies_.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    policies_.push_back(make_policy());
    RESMON_REQUIRE(policies_.back() != nullptr,
                   "policy factory returned nullptr");
  }
  if (metrics != nullptr) {
    decisions_total_ = &metrics->counter(
        "resmon_collect_decisions_total",
        "Per-node transmission decisions evaluated (N per step)");
    sends_total_ =
        &metrics->counter("resmon_collect_sends_total",
                          "Measurements pushed to the uplink (beta = 1)");
    link_bytes_ = &metrics->gauge(
        "resmon_collect_link_bytes_sent",
        "Cumulative wire bytes the uplink has carried (exact frame sizes)");
  }
}

std::span<const transport::MeasurementMessage> FleetCollector::step(
    std::size_t t) {
  RESMON_REQUIRE(t == next_step_,
                 "FleetCollector::step must be called with consecutive t");
  RESMON_REQUIRE(t < num_steps_, "step beyond end of the shortest source");
  ++next_step_;

  // Every node's policy decision is independent, so the decide() calls run
  // in parallel; per-node results land in disjoint slots (std::vector<bool>
  // packs bits, hence the byte-wide scratch vector). The slot's messages are
  // then gathered on this thread in node order, so the slot and its traffic
  // accounting are identical to the serial path. A fleet holding any
  // unbounded (live-sampling) source stays serial: such sources pace
  // themselves on the wall clock inside measurement().
  const std::size_t n = policies_.size();
  std::vector<std::uint8_t> transmit(n, 0);
  std::vector<std::vector<double>> measurements(n);
  ThreadPool* pool =
      num_steps_ == MeasurementSource::unbounded() ? nullptr : pool_;
  run_chunked(pool, n, kNodeGrain,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  measurements[i] = sources_[i]->measurement(t);
                  if (policies_[i]->decide(t, measurements[i])) {
                    transmit[i] = 1;
                  }
                }
              });

  sent_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (transmit[i] == 0) continue;
    sent_.push_back(
        {.node = i, .step = t, .values = std::move(measurements[i])});
    bytes_sent_ += sent_.back().wire_size();
  }
  messages_sent_ += sent_.size();
  if (decisions_total_ != nullptr) {
    decisions_total_->inc(n);
    sends_total_->inc(sent_.size());
    link_bytes_->set(static_cast<double>(bytes_sent_));
  }
  return sent_;
}

double FleetCollector::average_actual_frequency() const {
  double s = 0.0;
  for (const auto& p : policies_) s += p->actual_frequency();
  return s / static_cast<double>(policies_.size());
}

std::function<std::unique_ptr<TransmitPolicy>()> make_policy_factory(
    PolicyKind kind, double max_frequency, double v0, double gamma,
    bool clamp_queue, obs::MetricsRegistry* metrics) {
  switch (kind) {
    case PolicyKind::kAdaptive: {
      AdaptiveOptions opts;
      opts.max_frequency = max_frequency;
      opts.v0 = v0;
      opts.gamma = gamma;
      opts.clamp_queue = clamp_queue;
      opts.metrics = metrics;
      return [opts]() -> std::unique_ptr<TransmitPolicy> {
        return std::make_unique<AdaptiveTransmitter>(opts);
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

}  // namespace resmon::collect
