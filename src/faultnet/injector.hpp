// FaultInjector: the deterministic decision engine of resmon::faultnet.
//
// Every fault decision is a pure function of (spec.seed, node, step,
// fault-kind) — a splitmix64-style hash mapped to [0, 1) and compared
// against the spec's probability. No shared RNG state means the decision
// for frame (node, step) is identical whether it is asked once or twice,
// from one process or eight, in any order — which is what makes the chaos
// harness reproducible: the agent-side hook, the in-process fault stage
// and a test re-deriving the schedule all agree on exactly which frames
// fault.
#pragma once

#include <cstddef>
#include <cstdint>

#include "faultnet/fault_spec.hpp"
#include "obs/metrics.hpp"

namespace resmon::faultnet {

/// Which fault fired (label values of resmon_faultnet_injected_total).
enum class FaultKind : std::uint8_t {
  kDrop = 0,
  kDuplicate,
  kCorrupt,
  kDelay,
  kReorder,
  kStall,
  kPartition,
};

/// Stable label value of a FaultKind ("drop", "duplicate", ...).
const char* fault_kind_name(FaultKind kind);

/// The per-frame verdict for one (node, step).
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  std::size_t delay_slots = 0;  ///< 0 = deliver now
  bool stalled = false;         ///< inside a stall window
  bool partitioned = false;     ///< inside a partition window
};

class FaultInjector {
 public:
  /// `metrics` (non-owning, may be nullptr) receives the
  /// resmon_faultnet_injected_total{fault=...} counters; every label value
  /// is registered eagerly so dashboards and the docs drift test see the
  /// full family at zero.
  explicit FaultInjector(const FaultSpec& spec,
                         obs::MetricsRegistry* metrics = nullptr);

  const FaultSpec& spec() const { return spec_; }

  /// The fault verdict for the frame of (node, step). Pure: two calls with
  /// the same arguments always agree. Faults are mutually exclusive per
  /// frame with precedence partition > stall > drop > corrupt > duplicate >
  /// delay (a dropped frame cannot also be duplicated). Does not count
  /// metrics — callers count what they actually act on via count().
  FaultDecision decide(std::size_t node, std::size_t step) const;

  /// Whether a drained batch at drain index `batch` for `node` should be
  /// shuffled (the link-level reorder fault).
  bool reorder_batch(std::size_t node, std::size_t batch) const;

  /// Deterministic uniform draw in [0, n) for frame (node, step) and a
  /// caller-chosen salt (e.g. picking which payload byte to corrupt or a
  /// delay length). Requires n > 0.
  std::size_t pick(std::size_t node, std::size_t step, std::uint64_t salt,
                   std::size_t n) const;

  /// Bump resmon_faultnet_injected_total{fault=...} (no-op without metrics).
  void count(FaultKind kind) const;

 private:
  FaultSpec spec_;
  obs::Counter* injected_[7] = {nullptr};  // indexed by FaultKind
};

}  // namespace resmon::faultnet
