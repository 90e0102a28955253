// Numerical optimizers.
//
// Nelder-Mead powers the conditional-sum-of-squares estimation of ARIMA
// coefficients; Adam powers LSTM training. Both are dependency-free.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace resmon::optim {

/// Configuration for the Nelder-Mead downhill simplex method.
struct NelderMeadOptions {
  std::size_t max_iterations = 500;
  double initial_step = 0.1;   ///< Size of the initial simplex around x0.
  double f_tolerance = 1e-8;   ///< Stop when simplex f-spread falls below.
  double x_tolerance = 1e-8;   ///< Stop when simplex extent falls below.
};

/// Result of an optimization run.
struct OptimResult {
  std::vector<double> x;       ///< Best parameter vector found.
  double value = 0.0;          ///< Objective at x.
  std::size_t iterations = 0;  ///< Iterations actually used.
  bool converged = false;      ///< Tolerances reached before max_iterations.
};

/// Most points a search requests at once.
inline constexpr std::size_t kNelderMeadBatch = 4;

/// Nelder-Mead as a resumable search: it hands out the points it needs
/// scored (pending()) and takes their values back (tell()), so a caller can
/// score the points of several searches in one pass of its objective.
/// An iteration requests its reflect, expand and contract points together,
/// since all three depend only on the centroid and the worst vertex, and
/// the initial simplex and shrinks go kNelderMeadBatch vertices per
/// request. The decisions read only the values the textbook method reads,
/// so for a pure objective the search ends bit for bit where the
/// sequential method ends; it spends more evaluations, in fewer requests.
class NelderMeadSearch {
 public:
  NelderMeadSearch(std::vector<double> x0, const NelderMeadOptions& options);
  // pending() points into the search's own buffers, which a move keeps and
  // a copy would not.
  NelderMeadSearch(const NelderMeadSearch&) = delete;
  NelderMeadSearch& operator=(const NelderMeadSearch&) = delete;
  NelderMeadSearch(NelderMeadSearch&&) = default;
  NelderMeadSearch& operator=(NelderMeadSearch&&) = default;

  /// The points to score next, at most kNelderMeadBatch; empty once the
  /// search is done. The spans stay valid until the next tell().
  std::span<const std::span<const double>> pending() const {
    return {xs_.data(), pending_};
  }
  bool done() const { return pending_ == 0; }

  /// values[i] = f(pending()[i]) for every pending point; advances the
  /// search to its next request or to its end.
  void tell(std::span<const double> values);

  /// The best vertex and its value. Requires done().
  OptimResult result() const;

 private:
  // The three candidate points of an iteration.
  enum Trial : std::size_t { kReflected, kExpanded, kContracted, kTrials };

  void request_vertices();
  void iterate();
  void decide();

  NelderMeadOptions options_;
  std::size_t n_;
  std::vector<std::vector<double>> simplex_;
  std::vector<double> fvals_;
  std::vector<std::size_t> order_;
  std::vector<double> centroid_;
  std::array<std::vector<double>, kTrials> trial_;
  std::array<double, kTrials> f_trial_{};
  std::size_t best_ = 0, worst_ = 0, second_worst_ = 0;
  // Vertices still to score: every index from next_vertex_ on but skip_.
  std::size_t next_vertex_ = 0;
  std::size_t skip_ = 0;
  bool scoring_vertices_ = true;
  // The pending request: points, and, when scoring vertices, the vertex
  // each one is.
  std::array<std::span<const double>, kNelderMeadBatch> xs_{};
  std::array<std::size_t, kNelderMeadBatch> ids_{};
  std::size_t pending_ = 0;
  OptimResult result_;
};

/// Tunables for the Adam optimizer. The moment decay rates (0.9, 0.999)
/// and the denominator guard (1e-8) are Kingma & Ba's defaults, fixed in
/// Adam::step.
struct AdamOptions {
  double learning_rate = 1e-2;
};

/// Adam first-order optimizer state for a flat parameter vector.
/// Usage: repeatedly compute a gradient for the current parameters and call
/// step(); the optimizer updates the parameters in place.
class Adam {
 public:
  using Options = AdamOptions;

  explicit Adam(std::size_t dimension, const Options& options = {});

  /// Apply one Adam update: params -= lr * m_hat / (sqrt(v_hat) + eps).
  /// Requires params.size() == grad.size() == dimension.
  void step(std::span<double> params, std::span<const double> grad);

  std::size_t dimension() const { return m_.size(); }
  std::size_t steps_taken() const { return t_; }

 private:
  Options opts_;
  std::vector<double> m_;
  std::vector<double> v_;
  std::size_t t_ = 0;
};

}  // namespace resmon::optim
