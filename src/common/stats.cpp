#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace resmon::stats {

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.empty()) return 0.0;
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size());
}

double sample_variance(std::span<const double> x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size() - 1);
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

double sample_stddev(std::span<const double> x) {
  return std::sqrt(sample_variance(x));
}

double min(std::span<const double> x) {
  RESMON_REQUIRE(!x.empty(), "min of empty range");
  return *std::min_element(x.begin(), x.end());
}

double max(std::span<const double> x) {
  RESMON_REQUIRE(!x.empty(), "max of empty range");
  return *std::max_element(x.begin(), x.end());
}

double sample_covariance(std::span<const double> x,
                         std::span<const double> y) {
  RESMON_REQUIRE(x.size() == y.size(), "covariance length mismatch");
  if (x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    s += (x[i] - mx) * (y[i] - my);
  }
  return s / static_cast<double>(x.size() - 1);
}

double pearson(std::span<const double> x, std::span<const double> y) {
  RESMON_REQUIRE(x.size() == y.size(), "pearson length mismatch");
  const double sx = sample_stddev(x);
  const double sy = sample_stddev(y);
  if (sx == 0.0 || sy == 0.0) return 0.0;
  return sample_covariance(x, y) / (sx * sy);
}

double quantile(std::vector<double> x, double q) {
  RESMON_REQUIRE(!x.empty(), "quantile of empty range");
  RESMON_REQUIRE(q >= 0.0 && q <= 1.0, "quantile level must be in [0,1]");
  std::sort(x.begin(), x.end());
  const double pos = q * static_cast<double>(x.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, x.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return x[lo] * (1.0 - frac) + x[hi] * frac;
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> samples)
    : sorted_(std::move(samples)) {
  RESMON_REQUIRE(!sorted_.empty(), "EmpiricalCdf needs at least one sample");
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::operator()(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double normal_quantile(double p) {
  RESMON_REQUIRE(p > 0.0 && p < 1.0,
                 "normal_quantile requires p in (0,1)");
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;

  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
         c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
         a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using erfc for the CDF.
  const double e = 0.5 * std::erfc(-x / std::sqrt(2.0)) - p;
  const double u = e * std::sqrt(2.0 * std::numbers::pi) *
                   std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

}  // namespace resmon::stats
