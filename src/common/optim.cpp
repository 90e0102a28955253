#include "common/optim.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"

namespace resmon::optim {

namespace {

// Standard reflection/expansion/contraction/shrink coefficients.
constexpr double kAlpha = 1.0;
constexpr double kGamma = 2.0;
constexpr double kRho = 0.5;
constexpr double kSigma = 0.5;

}  // namespace

NelderMeadSearch::NelderMeadSearch(std::vector<double> x0,
                                   const NelderMeadOptions& options)
    : options_(options), n_(x0.size()) {
  RESMON_REQUIRE(!x0.empty(), "nelder_mead requires at least one parameter");
  static_assert(kTrials <= kNelderMeadBatch);
  simplex_.assign(n_ + 1, x0);
  for (std::size_t i = 0; i < n_; ++i) {
    simplex_[i + 1][i] +=
        x0[i] != 0.0 ? options.initial_step * std::fabs(x0[i]) +
                           options.initial_step
                     : options.initial_step;
  }
  fvals_.resize(n_ + 1);
  order_.resize(n_ + 1);
  centroid_.resize(n_);
  for (auto& v : trial_) v.resize(n_);
  skip_ = n_ + 1;
  request_vertices();
}

// Requests the next kNelderMeadBatch vertices still to score, in index
// order; once none is left, the next iteration starts.
void NelderMeadSearch::request_vertices() {
  scoring_vertices_ = true;
  pending_ = 0;
  for (; next_vertex_ <= n_ && pending_ < kNelderMeadBatch; ++next_vertex_) {
    if (next_vertex_ == skip_) continue;
    ids_[pending_] = next_vertex_;
    xs_[pending_++] = simplex_[next_vertex_];
  }
  if (pending_ == 0) iterate();
}

void NelderMeadSearch::iterate() {
  if (result_.iterations == options_.max_iterations) return;  // done
  ++result_.iterations;
  for (std::size_t i = 0; i <= n_; ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return fvals_[a] < fvals_[b];
  });
  best_ = order_[0];
  worst_ = order_[n_];
  second_worst_ = order_[n_ - 1];

  // Convergence: spread of objective values and simplex extent.
  const double f_spread = std::fabs(fvals_[worst_] - fvals_[best_]);
  double x_spread = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    x_spread = std::max(x_spread,
                        std::fabs(simplex_[worst_][i] - simplex_[best_][i]));
  }
  if (f_spread < options_.f_tolerance && x_spread < options_.x_tolerance) {
    result_.converged = true;
    return;  // done
  }

  // Centroid of all points except the worst.
  std::fill(centroid_.begin(), centroid_.end(), 0.0);
  for (std::size_t i = 0; i <= n_; ++i) {
    if (i == worst_) continue;
    for (std::size_t d = 0; d < n_; ++d) centroid_[d] += simplex_[i][d];
  }
  for (double& c : centroid_) c /= static_cast<double>(n_);

  for (std::size_t d = 0; d < n_; ++d) {
    trial_[kReflected][d] =
        centroid_[d] + kAlpha * (centroid_[d] - simplex_[worst_][d]);
    trial_[kExpanded][d] =
        centroid_[d] + kGamma * (trial_[kReflected][d] - centroid_[d]);
    trial_[kContracted][d] =
        centroid_[d] + kRho * (simplex_[worst_][d] - centroid_[d]);
  }
  scoring_vertices_ = false;
  for (std::size_t c = 0; c < kTrials; ++c) xs_[c] = trial_[c];
  pending_ = kTrials;
}

// The iteration's decision, from the values of its three trial points.
void NelderMeadSearch::decide() {
  pending_ = 0;
  const double f_reflected = f_trial_[kReflected];
  Trial accept = kReflected;
  if (f_reflected < fvals_[best_]) {
    if (f_trial_[kExpanded] < f_reflected) accept = kExpanded;
  } else if (!(f_reflected < fvals_[second_worst_])) {
    if (!(f_trial_[kContracted] < fvals_[worst_])) {
      // Shrink the whole simplex towards the best vertex.
      for (std::size_t i = 0; i <= n_; ++i) {
        if (i == best_) continue;
        for (std::size_t d = 0; d < n_; ++d) {
          simplex_[i][d] = simplex_[best_][d] +
                           kSigma * (simplex_[i][d] - simplex_[best_][d]);
        }
      }
      next_vertex_ = 0;
      skip_ = best_;
      request_vertices();
      return;
    }
    accept = kContracted;
  }
  simplex_[worst_] = trial_[accept];
  fvals_[worst_] = f_trial_[accept];
  iterate();
}

void NelderMeadSearch::tell(std::span<const double> values) {
  RESMON_REQUIRE(!done() && values.size() == pending_,
                 "nelder_mead: one value per pending point");
  if (scoring_vertices_) {
    for (std::size_t i = 0; i < pending_; ++i) fvals_[ids_[i]] = values[i];
    request_vertices();
    return;
  }
  std::copy(values.begin(), values.end(), f_trial_.begin());
  decide();
}

OptimResult NelderMeadSearch::result() const {
  RESMON_REQUIRE(done(), "nelder_mead: result before the search is done");
  OptimResult out = result_;
  const auto best_it = std::min_element(fvals_.begin(), fvals_.end());
  out.value = *best_it;
  out.x = simplex_[static_cast<std::size_t>(best_it - fvals_.begin())];
  return out;
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
