// The controller's slot rule written the plain way: one std::deque of
// measurements per node, a progress mark per node, the shard summaries'
// degraded marks, and a LIVE/STALE verdict from each node's last frame.
// It is the oracle that net::Controller::collect_slot (over its pooled
// SlotInbox) must match for any arrival stream: the same slot vectors and
// the same degraded-slot count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <vector>

#include "transport/channel.hpp"

namespace resmon::oracle {

class ReferenceInbox {
 public:
  /// `stale_after_ms` as in ControllerOptions (0 = nodes never go STALE);
  /// times are milliseconds on the caller's clock, which starts at 0.
  ReferenceInbox(std::size_t num_nodes, long long stale_after_ms)
      : stale_after_ms_(stale_after_ms),
        progress_(num_nodes, -1),
        inbox_(num_nodes),
        last_seen_(num_nodes, 0),
        stale_(num_nodes, false) {}

  /// A hello, or any node a shard hello covers.
  void hello(std::size_t node, long long now) { touch(node, now); }

  /// The inbox alone: queue `m` at the back of its node's deque.
  void push(const transport::MeasurementMessage& m) {
    inbox_[m.node].push_back(m);
  }

  /// The inbox alone: slot t in node order. Each deque drops its prefix
  /// with step < t, then gives up its front if that is step t.
  std::vector<transport::MeasurementMessage> take(std::size_t t) {
    std::vector<transport::MeasurementMessage> out;
    for (std::deque<transport::MeasurementMessage>& q : inbox_) {
      while (!q.empty() && q.front().step < t) q.pop_front();
      if (!q.empty() && q.front().step == t) {
        out.push_back(q.front());
        q.pop_front();
      }
    }
    return out;
  }

  void measurement(const transport::MeasurementMessage& m, long long now) {
    advance(m.node, m.step, now);
    push(m);
  }

  void heartbeat(std::size_t node, std::uint64_t step, long long now) {
    advance(node, step, now);
  }

  /// A slot summary of the shard fronting [first, first + count).
  void summary(std::size_t first, std::size_t count, std::uint64_t step,
               std::uint32_t degraded,
               const std::vector<transport::MeasurementMessage>& entries,
               long long now) {
    for (std::size_t node = first; node < first + count; ++node) {
      advance(node, step, now);
    }
    for (const transport::MeasurementMessage& m : entries) push(m);
    if (degraded > 0) degraded_marks_.insert(step);
  }

  /// What a pump of the event loop does after reading: silence of
  /// stale_after_ms or more turns a LIVE node STALE.
  void update_states(long long now) {
    if (stale_after_ms_ <= 0) return;
    for (std::size_t node = 0; node < stale_.size(); ++node) {
      if (now - last_seen_[node] >= stale_after_ms_) stale_[node] = true;
    }
  }

  /// collect_slot(t) with a zero timeout: nullopt unless every LIVE node
  /// has reported slot t already.
  std::optional<std::vector<transport::MeasurementMessage>> collect(
      std::size_t t) {
    const long long slot = static_cast<long long>(t);
    bool degraded = false;
    for (std::size_t node = 0; node < progress_.size(); ++node) {
      if (progress_[node] < slot && !stale_[node]) return std::nullopt;
      if (progress_[node] < slot) degraded = true;
    }
    if (degraded_marks_.count(t) != 0) degraded = true;
    degraded_marks_.erase(degraded_marks_.begin(),
                          degraded_marks_.upper_bound(t));
    if (degraded) ++degraded_slots_;
    return take(t);
  }

  std::uint64_t degraded_slots() const { return degraded_slots_; }

 private:
  void touch(std::size_t node, long long now) {
    last_seen_[node] = now;
    stale_[node] = false;
  }

  void advance(std::size_t node, std::uint64_t step, long long now) {
    progress_[node] = std::max(progress_[node], static_cast<long long>(step));
    touch(node, now);
  }

  long long stale_after_ms_;
  std::vector<long long> progress_;
  std::vector<std::deque<transport::MeasurementMessage>> inbox_;
  std::vector<long long> last_seen_;
  std::vector<bool> stale_;
  std::set<std::uint64_t> degraded_marks_;
  std::uint64_t degraded_slots_ = 0;
};

}  // namespace resmon::oracle
