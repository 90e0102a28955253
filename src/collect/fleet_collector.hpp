// FleetCollector: drives one TransmitPolicy per node against a trace and
// produces each slot's uplink messages.
//
// This is the "measurement collection" half of the paper's system. It owns
// no central store: the consumer applies each slot to its own z_t (the core
// MonitoringPipeline owns the one the clustering and forecasting read).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collect/adaptive_transmitter.hpp"
#include "collect/transmit_policy.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "transport/channel.hpp"

namespace resmon::collect {

/// Which transmission policy a fleet uses.
enum class PolicyKind {
  kAdaptive,  ///< §V-A drift-plus-penalty (the paper's algorithm)
  kUniform,   ///< fixed-interval baseline (§VI-B)
  kAlways,    ///< transmit every step (B = 1); ground-truth reference
  kDeadband,  ///< calibrated send-on-delta (ablation; refs [13]-[17])
};

/// Runs the collection stage: each time step, every node observes its
/// measurement from the trace, its policy decides whether to transmit, and
/// the slot's transmitted messages go to the caller.
class FleetCollector {
 public:
  /// Builds a fleet with one policy per node from the given factory.
  /// `metrics` (non-owning) receives fleet-level collection series
  /// (resmon_collect_*; see DESIGN.md "Observability"); nullptr = a private
  /// registry. messages_sent() reads resmon_collect_sends_total, so two
  /// collectors sharing one registry read their sum. `trace` must outlive
  /// the collector.
  FleetCollector(
      const trace::Trace& trace,
      const std::function<std::unique_ptr<TransmitPolicy>()>& make_policy,
      obs::MetricsRegistry* metrics = nullptr);

  /// Advance one time step. Must be called with consecutive t starting at 0.
  /// Every node decides in node order on the calling thread. Returns the
  /// slot's transmitted messages: exactly the nodes with beta_t = 1, in
  /// node order; valid until the next step().
  std::span<const transport::MeasurementMessage> step(std::size_t t);

  /// Sender-side traffic so far: every transmitted message and its exact
  /// wire-frame bytes (what the fleet paid for, whatever the uplink then
  /// loses).
  std::uint64_t messages_sent() const { return sends_total_->value(); }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  const TransmitPolicy& policy(std::size_t node) const {
    return *policies_[node];
  }

  /// Average actual transmission frequency across the fleet.
  double average_actual_frequency() const;

  std::size_t num_nodes() const { return policies_.size(); }

 private:
  const trace::Trace& trace_;
  std::vector<std::unique_ptr<TransmitPolicy>> policies_;
  std::vector<transport::MeasurementMessage> sent_;  ///< by last step()
  std::uint64_t bytes_sent_ = 0;  ///< published by link_bytes_
  std::size_t next_step_ = 0;
  obs::RegistryRef registry_;  ///< the caller's registry or a private one
  obs::Counter* decisions_total_ = nullptr;
  obs::Counter* sends_total_ = nullptr;
  obs::Gauge* link_bytes_ = nullptr;
};

/// Convenience: a policy factory for the given kind and budget B. The
/// adaptive kind takes V_0, gamma, the queue clamp and the metrics sink
/// from `adaptive` (its max_frequency is replaced by B), so the paper's
/// defaults live in AdaptiveOptions alone; the other kinds ignore it and
/// are covered by the FleetCollector-level counters.
std::function<std::unique_ptr<TransmitPolicy>()> make_policy_factory(
    PolicyKind kind, double max_frequency, AdaptiveOptions adaptive = {});

/// The kind spelled `name`: adaptive, uniform, always or deadband. Throws
/// InvalidArgument("<context>: unknown policy ...") for any other name.
PolicyKind policy_kind_from_string(const std::string& name,
                                   const std::string& context);

}  // namespace resmon::collect
