// Trace substrate: the per-node resource-utilization time series that the
// monitoring pipeline consumes.
//
// The paper evaluates on the Alibaba (2018), Bitbrains GWA-T-12 and Google
// cluster-usage (v2) traces, which are not redistributable here; the
// `synthetic.hpp` generators provide statistically matched stand-ins (see
// DESIGN.md "Substitutions"), and `loader.hpp` can ingest the real traces
// from CSV when available.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace resmon::trace {

/// Index constants for the two resource types used throughout the paper.
inline constexpr std::size_t kCpu = 0;
inline constexpr std::size_t kMemory = 1;

/// Human-readable resource names for report output.
std::string resource_name(std::size_t resource);

/// Immutable view of a complete trace: `num_nodes()` machines, each with a
/// `num_resources()`-dimensional normalized utilization measurement at every
/// one of `num_steps()` time steps. Values are in [0, 1].
class Trace {
 public:
  virtual ~Trace() = default;

  virtual std::size_t num_nodes() const = 0;
  virtual std::size_t num_steps() const = 0;
  virtual std::size_t num_resources() const = 0;

  /// Normalized utilization of `resource` at `node` and time step `t`.
  virtual double value(std::size_t node, std::size_t t,
                       std::size_t resource) const = 0;

  /// The d-dimensional measurement x_{i,t} of eq. (1) context.
  std::vector<double> measurement(std::size_t node, std::size_t t) const;

  /// Full time series of one resource at one node (used by offline
  /// baselines and correlation studies).
  std::vector<double> series(std::size_t node, std::size_t resource) const;
};

/// Trace held densely in memory, row-major by (step, node, resource): the
/// measurements of one time step across the whole fleet, x_{0,t} ..
/// x_{N-1,t}, are one contiguous N x d block, in the order every slot of
/// the pipeline reads them. `series()` is the strided read.
class InMemoryTrace final : public Trace {
 public:
  InMemoryTrace(std::size_t num_nodes, std::size_t num_steps,
                std::size_t num_resources);

  std::size_t num_nodes() const override { return num_nodes_; }
  std::size_t num_steps() const override { return num_steps_; }
  std::size_t num_resources() const override { return num_resources_; }

  double value(std::size_t node, std::size_t t,
               std::size_t resource) const override {
    return data_[offset(node, t, resource)];
  }

  void set_value(std::size_t node, std::size_t t, std::size_t resource,
                 double v) {
    data_[offset(node, t, resource)] = v;
  }

  /// Same shape and every value equal by `==` (so a NaN never matches).
  /// Written out: Trace has no members, and a defaulted == on it would let
  /// any two Trace references compare equal.
  bool operator==(const InMemoryTrace& other) const {
    return num_nodes_ == other.num_nodes_ &&
           num_steps_ == other.num_steps_ &&
           num_resources_ == other.num_resources_ && data_ == other.data_;
  }

 private:
  std::size_t offset(std::size_t node, std::size_t t,
                     std::size_t resource) const {
    return (t * num_nodes_ + node) * num_resources_ + resource;
  }

  std::size_t num_nodes_;
  std::size_t num_steps_;
  std::size_t num_resources_;
  std::vector<double> data_;
};

}  // namespace resmon::trace
