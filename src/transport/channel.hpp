// The two ends of the uplink between local nodes and the central node.
//
// The paper's system is a star topology: every machine may push its latest
// measurement to the controller each slot. MeasurementMessage is what one
// push carries, and CentralStore is the controller's z_t that the pushes
// update. The hop between them is a span of messages per slot, from the
// in-process collect::FleetCollector (optionally through a
// faultnet::FaultyLink) or from the TCP runtime in net.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "transport/wire_format.hpp"

namespace resmon::transport {

/// The values of one measurement, owned like a std::vector<double>: up to
/// kInline doubles live in the object itself, so every shipped dimension
/// (traces d = 2, the host sampler d = 4) is built, copied, moved and
/// freed without touching the heap. A larger measurement keeps one heap
/// block, which shrinks only when the object is destroyed. A moved-from
/// object is empty.
class MeasurementValues {
 public:
  static constexpr std::size_t kInline = 4;

  using iterator = double*;
  using const_iterator = const double*;

  MeasurementValues() noexcept {}
  MeasurementValues(std::initializer_list<double> values) {
    assign({values.begin(), values.size()});
  }
  /// Implicit, so a message can be built as {.values = std::move(vec)}.
  // resmon-lint-allow(explicit-ctor): the vector-built message above
  MeasurementValues(const std::vector<double>& values) {
    assign(values);
  }
  MeasurementValues(const MeasurementValues& other) { assign(other); }
  MeasurementValues(MeasurementValues&& other) noexcept { take(other); }
  MeasurementValues& operator=(const MeasurementValues& other) {
    if (this != &other) assign(other);
    return *this;
  }
  MeasurementValues& operator=(MeasurementValues&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~MeasurementValues() { release(); }

  /// Replace the contents with a copy of `values`.
  void assign(std::span<const double> values) {
    resize_for_overwrite(values.size());
    if (!values.empty()) {
      std::memmove(data(), values.data(), values.size() * sizeof(double));
    }
  }
  /// Resize to `n`, zeroing any new entries.
  void resize(std::size_t n) {
    const std::size_t old = size_;
    resize_for_overwrite(n);
    if (n > old) std::fill(data() + old, data() + n, 0.0);
  }
  /// Resize to `n`, leaving any new entries for the caller to overwrite
  /// (a decoder copying a whole measurement in need not zero it first).
  void resize_for_overwrite(std::size_t n) {
    reserve(n);
    size_ = n;
  }
  void push_back(double v) {
    if (size_ == capacity_) reserve(2 * capacity_);
    data()[size_++] = v;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// kInline while the values live in the object, else the heap block's.
  std::size_t capacity() const noexcept { return capacity_; }
  double* data() noexcept { return on_heap() ? heap_ : inline_; }
  const double* data() const noexcept { return on_heap() ? heap_ : inline_; }
  double* begin() noexcept { return data(); }
  double* end() noexcept { return data() + size_; }
  const double* begin() const noexcept { return data(); }
  const double* end() const noexcept { return data() + size_; }
  double& operator[](std::size_t i) noexcept { return data()[i]; }
  double operator[](std::size_t i) const noexcept { return data()[i]; }

  operator std::span<const double>() const noexcept {
    return {data(), size_};
  }

  friend bool operator==(const MeasurementValues& a,
                         const MeasurementValues& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  bool on_heap() const noexcept { return capacity_ > kInline; }

  /// Make room for `n` values, keeping the current ones.
  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    auto* grown = new double[n];
    if (size_ > 0) std::memcpy(grown, data(), size_ * sizeof(double));
    release();
    heap_ = grown;
    capacity_ = n;
  }
  void release() noexcept {
    if (on_heap()) delete[] heap_;
    capacity_ = kInline;
  }
  /// Take `other`'s values (this holds none); leaves `other` empty.
  void take(MeasurementValues& other) noexcept {
    if (other.on_heap()) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.capacity_ = kInline;
    } else {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(double));
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  std::size_t size_ = 0;
  std::size_t capacity_ = kInline;  ///< > kInline iff heap_ is live
  union {
    double inline_[kInline];
    double* heap_;
  };
};

/// One uplink message: node i's measurement x_{i,t}.
struct MeasurementMessage {
  std::size_t node = 0;
  std::size_t step = 0;
  MeasurementValues values;

  /// Serialized size used for bandwidth accounting: the exact byte count of
  /// this message as one wire-protocol frame (header + payload; layout in
  /// transport/wire_format.hpp). net::wire::encode() produces exactly this many
  /// bytes, so simulated and real transports report identical bandwidth.
  std::size_t wire_size() const {
    return net::wire::measurement_frame_size(values.size());
  }

  bool operator==(const MeasurementMessage&) const = default;
};

/// The central node's view of the system: z_t of §IV — the most recent
/// measurement received from each node, with its age.
class CentralStore {
 public:
  CentralStore(std::size_t num_nodes, std::size_t num_resources);

  /// Record a received measurement. Messages may arrive out of order after
  /// delays; stale messages (older than what is stored) are ignored.
  void apply(const MeasurementMessage& message);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_resources() const { return num_resources_; }

  /// True once at least one measurement has been received from `node`.
  bool has(std::size_t node) const { return last_step_[node] >= 0; }

  /// True once every node has reported at least once.
  bool complete() const { return heard_ == num_nodes_; }

  /// z_{i,t}: the stored measurement for `node`. Requires has(node).
  std::span<const double> stored(std::size_t node) const;

  /// z_t of every node, one row-major num_nodes() x num_resources() block:
  /// row i is stored(i). Requires complete().
  std::span<const double> values() const;

  /// Time step of the stored measurement. Requires has(node).
  std::size_t last_update_step(std::size_t node) const;

  /// Age of the stored measurement at `current_step` (p in §IV).
  std::size_t staleness(std::size_t node, std::size_t current_step) const;

 private:
  std::size_t num_nodes_;
  std::size_t num_resources_;
  std::vector<double> values_;         // row i = node i's measurement
  std::vector<long long> last_step_;  // -1 = nothing received yet
  std::size_t heard_ = 0;             // nodes with has(node)
};

}  // namespace resmon::transport
