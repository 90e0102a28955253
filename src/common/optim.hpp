// Numerical optimizers.
//
// Nelder-Mead powers the conditional-sum-of-squares estimation of ARIMA
// coefficients; Adam powers LSTM training. Both are dependency-free.
#pragma once

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

/// Minimize f starting from x0 with the Nelder-Mead simplex method.
/// f must be defined for all real inputs (use penalties for constraints).
/// f is evaluated only at the points the method's decisions reach.
OptimResult nelder_mead(const std::function<double(std::span<const double>)>& f,
                        std::vector<double> x0,
                        const NelderMeadOptions& options = {});

/// The same method over a batch objective. Each iteration scores its
/// reflect, expand and contract candidates in one call, since all three
/// depend only on the centroid and the worst vertex; the initial simplex
/// and shrinks go in batches of up to kNelderMeadBatch. The decisions are
/// the scalar overload's, so for a pure objective both return the same
/// result bit for bit; the batch form spends more evaluations, in fewer
/// calls.
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
