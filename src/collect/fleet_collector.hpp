// FleetCollector: drives one TransmitPolicy per node against a trace and
// produces each slot's uplink messages through a Link.
//
// This is the "measurement collection" half of the paper's system. It owns
// no central store: the consumer applies each slot to its own z_t (the core
// MonitoringPipeline owns the one the clustering and forecasting read).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "collect/measurement_source.hpp"
#include "collect/transmit_policy.hpp"
#include "obs/metrics.hpp"
#include "trace/trace.hpp"
#include "transport/channel.hpp"
#include "transport/link.hpp"

namespace resmon {
class ThreadPool;
}

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
/// the link delivers the slot's messages to the caller.
class FleetCollector {
 public:
  /// Builds a fleet with one policy per node from the given factory.
  /// `pool` (non-owning, may be nullptr) parallelizes the per-node policy
  /// stepping; each policy is only ever touched by one thread per step and
  /// link sends stay serialized in node order on the calling thread, so
  /// results are identical at every thread count.
  /// `link` replaces the default reliable in-process Channel (e.g. with a
  /// net::LoopbackLink that runs the real wire codec, or a
  /// faultnet::FaultyLink that injects uplink failures).
  /// `metrics` (non-owning, may be nullptr) receives fleet-level collection
  /// series (resmon_collect_*; see DESIGN.md "Observability").
  FleetCollector(
      const trace::Trace& trace,
      const std::function<std::unique_ptr<TransmitPolicy>()>& make_policy,
      ThreadPool* pool = nullptr,
      std::unique_ptr<transport::Link> link = nullptr,
      obs::MetricsRegistry* metrics = nullptr);

  /// Same, but over arbitrary MeasurementSources (one per node) instead of
  /// a trace — the host-collection path (procfs sampling, recorded-series
  /// replay). All sources must agree on num_resources(). Live sources may
  /// block inside measurement(), so the per-node loop stays serial in node
  /// order whenever any source is unbounded; `pool` still parallelizes the
  /// policy decisions for bounded (trace-like) sources.
  FleetCollector(
      std::vector<std::unique_ptr<MeasurementSource>> sources,
      const std::function<std::unique_ptr<TransmitPolicy>()>& make_policy,
      ThreadPool* pool = nullptr,
      std::unique_ptr<transport::Link> link = nullptr,
      obs::MetricsRegistry* metrics = nullptr);

  /// Advance one time step. Must be called with consecutive t starting at 0.
  /// Returns the messages the link delivers this slot, in delivery order;
  /// valid until the next step(). On a reliable link they are exactly the
  /// nodes with beta_t = 1, in node order.
  std::span<const transport::MeasurementMessage> step(std::size_t t);

  const transport::Link& link() const { return *link_; }

  const TransmitPolicy& policy(std::size_t node) const {
    return *policies_[node];
  }

  /// Average actual transmission frequency across the fleet.
  double average_actual_frequency() const;

  std::size_t num_nodes() const { return policies_.size(); }

 private:
  std::vector<std::unique_ptr<MeasurementSource>> sources_;
  std::size_t num_steps_ = 0;  ///< min over sources (cached)
  std::vector<std::unique_ptr<TransmitPolicy>> policies_;
  std::unique_ptr<transport::Link> link_;
  std::vector<transport::MeasurementMessage> delivered_;  ///< by last step()
  ThreadPool* pool_ = nullptr;
  std::size_t next_step_ = 0;
  // Optional metrics (all nullptr when no registry was given).
  obs::Counter* decisions_total_ = nullptr;
  obs::Counter* sends_total_ = nullptr;
  obs::Gauge* link_bytes_ = nullptr;
};

/// Convenience: a policy factory for the given kind and budget B.
/// `metrics` (non-owning) flows into AdaptiveOptions::metrics so the
/// adaptive transmitters emit their queue-backlog series; the other policy
/// kinds are covered by the FleetCollector-level counters.
std::function<std::unique_ptr<TransmitPolicy>()> make_policy_factory(
    PolicyKind kind, double max_frequency, double v0 = 1e-12,
    double gamma = 0.65, bool clamp_queue = false,
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace resmon::collect
