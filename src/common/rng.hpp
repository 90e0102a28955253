// Seeded random number generation.
//
// All randomness in resmon flows through Rng so that every experiment is
// reproducible from a single 64-bit seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace resmon {

/// Deterministic random source. Thin wrapper over std::mt19937_64 with the
/// distributions the library needs. Copyable; copies evolve independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * unit_(engine_);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Standard normal draw.
  double normal() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return mean + stddev * normal_(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool bernoulli(double p) { return unit_(engine_) < p; }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace resmon
