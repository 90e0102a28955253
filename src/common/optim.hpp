// Numerical optimizers.
//
// Nelder-Mead powers the conditional-sum-of-squares estimation of ARIMA
// coefficients; Adam powers LSTM training. Both are dependency-free.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
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

/// Most points a batch objective is handed in one call.
inline constexpr std::size_t kNelderMeadBatch = 4;

/// Objective that scores several points in one call:
/// out[i] = f(xs[i]) for every i < xs.size() <= kNelderMeadBatch.
using BatchObjective = std::function<void(
    std::span<const std::span<const double>> xs, std::span<double> out)>;

/// Nelder-Mead as a resumable search: it hands out the points it needs
/// scored (pending()) and takes their values back (tell()), so a caller can
/// score the points of several searches in one pass of its objective. Both
/// nelder_mead overloads are loops over it.
class NelderMeadSearch {
 public:
  /// How the search hands out its points. Batched, an iteration requests
  /// its reflect, expand and contract points together, since all three
  /// depend only on the centroid and the worst vertex, and the initial
  /// simplex and shrinks go kNelderMeadBatch vertices per request. The
  /// decisions read only the values handed back, so for a pure objective
  /// both ways reach the same result bit for bit; batched spends more
  /// evaluations, in fewer requests.
  enum class Requests : std::uint8_t {
    kOneAtATime,  ///< each point only when a decision reads it
    kBatched,     ///< up to kNelderMeadBatch points per request
  };

  NelderMeadSearch(std::vector<double> x0, const NelderMeadOptions& options,
                   Requests requests = Requests::kBatched);
  // pending() points into the search's own buffers, which a move keeps and
  // a copy would not.
  NelderMeadSearch(const NelderMeadSearch&) = delete;
  NelderMeadSearch& operator=(const NelderMeadSearch&) = delete;
  NelderMeadSearch(NelderMeadSearch&&) = default;
  NelderMeadSearch& operator=(NelderMeadSearch&&) = default;

  /// The points to score next, at most kNelderMeadBatch (one when
  /// requested one at a time); empty once the search is done.
  /// The spans stay valid until the next tell().
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
  bool scored(Trial c);

  NelderMeadOptions options_;
  std::size_t batch_;
  std::size_t n_;
  std::vector<std::vector<double>> simplex_;
  std::vector<double> fvals_;
  std::vector<std::size_t> order_;
  std::vector<double> centroid_;
  std::array<std::vector<double>, kTrials> trial_;
  std::array<double, kTrials> f_trial_{};
  std::array<bool, kTrials> scored_{};
  std::size_t best_ = 0, worst_ = 0, second_worst_ = 0;
  // Vertices still to score: every index from next_vertex_ on but skip_.
  std::size_t next_vertex_ = 0;
  std::size_t skip_ = 0;
  bool scoring_vertices_ = true;
  // The pending request: points, and the vertex or trial each one is.
  std::array<std::span<const double>, kNelderMeadBatch> xs_{};
  std::array<std::size_t, kNelderMeadBatch> ids_{};
  std::size_t pending_ = 0;
  OptimResult result_;
};

/// Minimize f starting from x0 with the Nelder-Mead simplex method.
/// f must be defined for all real inputs (use penalties for constraints).
/// f is evaluated only at the points the method's decisions reach.
OptimResult nelder_mead(const std::function<double(std::span<const double>)>& f,
                        std::vector<double> x0,
                        const NelderMeadOptions& options = {});

/// The same method over a batch objective: NelderMeadSearch with
/// kNelderMeadBatch points per call of f. The decisions are the scalar
/// overload's, so for a pure objective both return the same result bit for
/// bit; the batch form spends more evaluations, in fewer calls.
OptimResult nelder_mead(const BatchObjective& f, std::vector<double> x0,
                        const NelderMeadOptions& options = {});

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
