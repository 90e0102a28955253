// Descriptive statistics used across the library: moments, Pearson
// correlation (the paper's spatial-correlation metric, §III), empirical CDFs
// (Fig. 1), and the normal quantile behind forecast intervals.
#pragma once

#include <span>
#include <vector>

namespace resmon::stats {

double mean(std::span<const double> x);

/// Population variance (divide by n). Returns 0 for n < 1.
double variance(std::span<const double> x);

/// Sample variance (divide by n-1). Returns 0 for n < 2.
double sample_variance(std::span<const double> x);

double stddev(std::span<const double> x);
double sample_stddev(std::span<const double> x);

double min(std::span<const double> x);
double max(std::span<const double> x);

/// Pearson correlation coefficient between two equally long series.
/// This is the paper's "(spatial) correlation of two nodes": sample
/// covariance divided by the two standard deviations. Returns 0 when either
/// series is constant (correlation undefined).
double pearson(std::span<const double> x, std::span<const double> y);

/// Sample covariance between two equally long series (divide by n-1).
double sample_covariance(std::span<const double> x, std::span<const double> y);

/// Quantile of the empirical distribution (linear interpolation), q in [0,1].
double quantile(std::vector<double> x, double q);

/// Empirical cumulative distribution function evaluated on a fixed grid.
/// Used to regenerate Fig. 1.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> samples);

  /// F(x) = fraction of samples <= x.
  double operator()(double x) const;

  std::size_t size() const { return sorted_.size(); }

 private:
  std::vector<double> sorted_;
};

/// Quantile function of the standard normal distribution (inverse CDF),
/// p in (0, 1). Accurate to ~1e-9 (Acklam's rational approximation with a
/// Halley refinement step). Used for forecast prediction intervals.
double normal_quantile(double p);

}  // namespace resmon::stats
