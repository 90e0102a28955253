// ManualClock: a hand-advanced stand-in for the monotonic clock.
//
// The Controller's LIVE -> STALE -> DEAD machine ages nodes by silence
// measured on an injectable clock (ControllerOptions::staleness_clock).
// Binding that clock to real time makes every staleness test a race against
// the scheduler; binding it to a ManualClock makes a "slot of silence" an
// explicit advance_ms() call, so churn scenarios and test_degradation
// replay bit-identically on any machine, sanitizer, or load.
//
// Thread-safe: now() may be read from the controller's pump loop while a
// driver thread advances it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

namespace resmon::scenario {

class ManualClock {
 public:
  /// Current manual time: a fixed epoch plus every advance so far.
  std::chrono::steady_clock::time_point now() const {
    return epoch_ + std::chrono::milliseconds(
                        elapsed_ms_.load(std::memory_order_acquire));
  }

  /// Move the clock forward (never backward — the clock stays monotonic).
  void advance_ms(std::int64_t ms) {
    elapsed_ms_.fetch_add(ms, std::memory_order_acq_rel);
  }

  /// Adapter for ControllerOptions::staleness_clock. The controller must
  /// not outlive this clock.
  std::function<std::chrono::steady_clock::time_point()> now_fn() {
    return [this] { return now(); };
  }

 private:
  // A fixed default epoch: the absolute value never matters, only
  // differences, and starting at a constant keeps runs reproducible.
  std::chrono::steady_clock::time_point epoch_{};
  std::atomic<std::int64_t> elapsed_ms_{0};
};

}  // namespace resmon::scenario
