// Textbook sequential Nelder-Mead: the oracle that optim::nelder_mead must
// match bit for bit. It scores one point per objective call, in the order
// the method's decisions reach them, and counts what it did, so tests can
// pin evaluation counts and check that an objective really shrinks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/optim.hpp"

namespace resmon::oracle {

struct ReferenceRun {
  optim::OptimResult result;
  std::size_t evaluations = 0;  ///< objective calls
  std::size_t shrinks = 0;      ///< iterations that shrank the simplex
};

inline ReferenceRun reference_nelder_mead(
    const std::function<double(std::span<const double>)>& objective,
    std::vector<double> x0, const optim::NelderMeadOptions& options = {}) {
  ReferenceRun run;
  const auto f = [&](std::span<const double> x) {
    ++run.evaluations;
    return objective(x);
  };
  const std::size_t n = x0.size();
  std::vector<std::vector<double>> simplex(n + 1, x0);
  for (std::size_t i = 0; i < n; ++i) {
    simplex[i + 1][i] +=
        x0[i] != 0.0 ? options.initial_step * std::fabs(x0[i]) +
                           options.initial_step
                     : options.initial_step;
  }
  std::vector<double> fvals(n + 1);
  for (std::size_t i = 0; i <= n; ++i) fvals[i] = f(simplex[i]);

  std::vector<std::size_t> order(n + 1);
  std::vector<double> centroid(n), reflected(n), expanded(n), contracted(n);
  optim::OptimResult& result = run.result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (std::size_t i = 0; i <= n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return fvals[a] < fvals[b]; });
    const std::size_t best = order[0];
    const std::size_t worst = order[n];
    const std::size_t second_worst = order[n - 1];

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

    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t i = 0; i <= n; ++i) {
      if (i == worst) continue;
      for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i][d];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    for (std::size_t d = 0; d < n; ++d) {
      reflected[d] = centroid[d] + 1.0 * (centroid[d] - simplex[worst][d]);
    }
    const double f_reflected = f(reflected);
    if (f_reflected < fvals[best]) {
      for (std::size_t d = 0; d < n; ++d) {
        expanded[d] = centroid[d] + 2.0 * (reflected[d] - centroid[d]);
      }
      const double f_expanded = f(expanded);
      if (f_expanded < f_reflected) {
        simplex[worst] = expanded;
        fvals[worst] = f_expanded;
      } else {
        simplex[worst] = reflected;
        fvals[worst] = f_reflected;
      }
    } else if (f_reflected < fvals[second_worst]) {
      simplex[worst] = reflected;
      fvals[worst] = f_reflected;
    } else {
      for (std::size_t d = 0; d < n; ++d) {
        contracted[d] = centroid[d] + 0.5 * (simplex[worst][d] - centroid[d]);
      }
      const double f_contracted = f(contracted);
      if (f_contracted < fvals[worst]) {
        simplex[worst] = contracted;
        fvals[worst] = f_contracted;
      } else {
        ++run.shrinks;
        for (std::size_t i = 0; i <= n; ++i) {
          if (i == best) continue;
          for (std::size_t d = 0; d < n; ++d) {
            simplex[i][d] =
                simplex[best][d] + 0.5 * (simplex[i][d] - simplex[best][d]);
          }
          fvals[i] = f(simplex[i]);
        }
      }
    }
  }
  const auto best_it = std::min_element(fvals.begin(), fvals.end());
  result.value = *best_it;
  result.x = simplex[static_cast<std::size_t>(best_it - fvals.begin())];
  return run;
}

}  // namespace resmon::oracle
