#include "collect/fleet_collector.hpp"

#include <utility>

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

}  // namespace

FleetCollector::FleetCollector(
    const trace::Trace& trace,
    const std::function<std::unique_ptr<TransmitPolicy>()>& make_policy,
    ThreadPool* pool, obs::MetricsRegistry* metrics)
    : trace_(trace), pool_(pool), registry_(metrics) {
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

  // Every node's policy decision is independent, so the decide() calls run
  // in parallel; per-node results land in disjoint slots (std::vector<bool>
  // packs bits, hence the byte-wide scratch vector). The slot's messages are
  // then gathered on this thread in node order, so the slot and its traffic
  // accounting are identical to the serial path.
  const std::size_t n = policies_.size();
  std::vector<std::uint8_t> transmit(n, 0);
  std::vector<std::vector<double>> measurements(n);
  run_chunked(pool_, n, kNodeGrain,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                  measurements[i] = trace_.measurement(i, t);
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

}  // namespace resmon::collect
