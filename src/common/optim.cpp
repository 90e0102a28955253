#include "common/optim.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace resmon::optim {

namespace {

// The one Nelder-Mead loop. With batch > 1 each iteration scores its
// reflect, expand and contract points in one call of f before deciding,
// and vertex sets go batch points per call; with batch == 1 each point is
// scored only when a decision reads it. The decisions, and so the result,
// are the same either way.
OptimResult minimize(const BatchObjective& f, std::size_t batch,
                     std::vector<double> x0,
                     const NelderMeadOptions& options) {
  RESMON_REQUIRE(!x0.empty(), "nelder_mead requires at least one parameter");
  const std::size_t n = x0.size();

  // Standard reflection/expansion/contraction/shrink coefficients.
  constexpr double kAlpha = 1.0;
  constexpr double kGamma = 2.0;
  constexpr double kRho = 0.5;
  constexpr double kSigma = 0.5;

  std::array<std::span<const double>, kNelderMeadBatch> xs;
  std::array<double, kNelderMeadBatch> out{};
  std::vector<std::vector<double>> simplex(n + 1, x0);
  std::vector<double> fvals(n + 1);
  // Scores every vertex but `skip`, batch vertices per call of f.
  const auto score_vertices = [&](std::size_t skip) {
    std::array<std::size_t, kNelderMeadBatch> idx{};
    std::size_t m = 0;
    const auto flush = [&] {
      f({xs.data(), m}, {out.data(), m});
      for (std::size_t i = 0; i < m; ++i) fvals[idx[i]] = out[i];
      m = 0;
    };
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == skip) continue;
      idx[m] = i;
      xs[m] = simplex[i];
      if (++m == batch) flush();
    }
    if (m > 0) flush();
  };

  for (std::size_t i = 0; i < n; ++i) {
    simplex[i + 1][i] +=
        x0[i] != 0.0 ? options.initial_step * std::fabs(x0[i]) +
                           options.initial_step
                     : options.initial_step;
  }
  score_vertices(n + 1);

  std::vector<std::size_t> order(n + 1);
  OptimResult result;
  std::vector<double> centroid(n);
  // The three candidate points of an iteration and their objective values.
  enum Trial : std::size_t { kReflected, kExpanded, kContracted, kTrials };
  static_assert(kTrials <= kNelderMeadBatch);
  std::array<std::vector<double>, kTrials> trial;
  for (auto& v : trial) v.resize(n);
  std::array<double, kTrials> f_trial{};
  std::array<bool, kTrials> scored{};
  const auto value = [&](Trial c) {
    if (!scored[c]) {
      xs[0] = trial[c];
      f({xs.data(), 1}, {&f_trial[c], 1});
      scored[c] = true;
    }
    return f_trial[c];
  };
  const auto accept = [&](std::size_t worst, Trial c) {
    simplex[worst] = trial[c];
    fvals[worst] = f_trial[c];
  };

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fvals[a] < fvals[b]; });

    const std::size_t best = order[0];
    const std::size_t worst = order[n];
    const std::size_t second_worst = order[n - 1];

    // Convergence: spread of objective values and simplex extent.
    const double f_spread = std::fabs(fvals[worst] - fvals[best]);
    double x_spread = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x_spread = std::max(
          x_spread, std::fabs(simplex[worst][i] - simplex[best][i]));
    }
    if (f_spread < options.f_tolerance && x_spread < options.x_tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all points except the worst.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    for (std::size_t d = 0; d < n; ++d) {
      trial[kReflected][d] =
          centroid[d] + kAlpha * (centroid[d] - simplex[worst][d]);
      trial[kExpanded][d] =
          centroid[d] + kGamma * (trial[kReflected][d] - centroid[d]);
      trial[kContracted][d] =
          centroid[d] + kRho * (simplex[worst][d] - centroid[d]);
    }
    scored.fill(batch > 1);
    if (batch > 1) {
      for (std::size_t c = 0; c < kTrials; ++c) xs[c] = trial[c];
      f({xs.data(), kTrials}, {f_trial.data(), kTrials});
    }

    const double f_reflected = value(kReflected);
    if (f_reflected < fvals[best]) {
      accept(worst, value(kExpanded) < f_reflected ? kExpanded : kReflected);
    } else if (f_reflected < fvals[second_worst]) {
      accept(worst, kReflected);
    } else if (value(kContracted) < fvals[worst]) {
      accept(worst, kContracted);
    } else {
      // Shrink the whole simplex towards the best vertex.
      for (std::size_t i = 0; i <= n; ++i) {
        if (i == best) continue;
        for (std::size_t d = 0; d < n; ++d) {
          simplex[i][d] = simplex[best][d] +
                          kSigma * (simplex[i][d] - simplex[best][d]);
        }
      }
      score_vertices(best);
    }
  }

  const auto best_it = std::min_element(fvals.begin(), fvals.end());
  result.value = *best_it;
  result.x = simplex[static_cast<std::size_t>(best_it - fvals.begin())];
  return result;
}

}  // namespace

OptimResult nelder_mead(const std::function<double(std::span<const double>)>& f,
                        std::vector<double> x0,
                        const NelderMeadOptions& options) {
  const BatchObjective one_at_a_time =
      [&f](std::span<const std::span<const double>> xs,
           std::span<double> out) {
        for (std::size_t i = 0; i < xs.size(); ++i) out[i] = f(xs[i]);
      };
  return minimize(one_at_a_time, 1, std::move(x0), options);
}

OptimResult nelder_mead(const BatchObjective& f, std::vector<double> x0,
                        const NelderMeadOptions& options) {
  return minimize(f, kNelderMeadBatch, std::move(x0), options);
}

Adam::Adam(std::size_t dimension, const Options& options)
    : opts_(options), m_(dimension, 0.0), v_(dimension, 0.0) {
  RESMON_REQUIRE(dimension > 0, "Adam requires a non-empty parameter vector");
}

void Adam::step(std::span<double> params, std::span<const double> grad) {
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEpsilon = 1e-8;
  RESMON_REQUIRE(params.size() == m_.size() && grad.size() == m_.size(),
                 "Adam dimension mismatch");
  ++t_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = kBeta1 * m_[i] + (1.0 - kBeta1) * grad[i];
    v_[i] = kBeta2 * v_[i] + (1.0 - kBeta2) * grad[i] * grad[i];
    const double m_hat = m_[i] / bias1;
    const double v_hat = v_[i] / bias2;
    params[i] -= opts_.learning_rate * m_hat / (std::sqrt(v_hat) + kEpsilon);
  }
}

}  // namespace resmon::optim
