// Transmission policies: when does a local node push its measurement?
//
// Each local node runs one policy instance. Policies see only local
// information (the node's own measurements and what it last transmitted),
// matching the paper's fully distributed setting.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace resmon::collect {

/// Per-node decision procedure for beta_{i,t} of §IV.
class TransmitPolicy {
 public:
  virtual ~TransmitPolicy() = default;

  /// Decide whether to transmit the measurement `x` observed at time step
  /// `t` (0-based, strictly increasing across calls). A `true` return means
  /// the node sends `x` now; the policy must account for it internally.
  virtual bool decide(std::size_t t, std::span<const double> x) = 0;

  /// The maximum transmission frequency B_i this policy was configured with.
  virtual double frequency_constraint() const = 0;

  /// Transmissions actually made so far.
  virtual std::uint64_t transmissions() const = 0;

  /// Decisions made so far (equals the number of decide() calls).
  virtual std::uint64_t decisions() const = 0;

  /// Actual transmission frequency so far: transmissions / decisions.
  double actual_frequency() const {
    return decisions() == 0
               ? 0.0
               : static_cast<double>(transmissions()) /
                     static_cast<double>(decisions());
  }
};

}  // namespace resmon::collect
