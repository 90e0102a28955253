#include "forecast/arima.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <numbers>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/kernels.hpp"
#include "forecast/managed.hpp"
#include "common/rng.hpp"
#include "reference_nelder_mead.hpp"

namespace resmon::forecast {
namespace {

std::vector<double> ar1_series(double phi, double mean, std::size_t n,
                               double noise, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  double state = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    state = phi * state + rng.normal(0.0, noise);
    x[t] = mean + state;
  }
  return x;
}

TEST(ArimaOrder, ToStringFormats) {
  EXPECT_EQ((ArimaOrder{.p = 2, .d = 1, .q = 1}).to_string(), "(2,1,1)");
  EXPECT_EQ((ArimaOrder{.p = 1, .d = 0, .q = 0, .sp = 1, .sd = 0, .sq = 0,
                        .season = 12})
                .to_string(),
            "(1,0,0)(1,0,0)[12]");
}

TEST(ArimaOrder, MeanOnlyWithoutDifferencing) {
  EXPECT_TRUE((ArimaOrder{.p = 1, .d = 0, .q = 0}).needs_mean());
  EXPECT_FALSE((ArimaOrder{.p = 1, .d = 1, .q = 0}).needs_mean());
  EXPECT_EQ((ArimaOrder{.p = 2, .d = 0, .q = 1}).num_params(), 4u);
  EXPECT_EQ((ArimaOrder{.p = 2, .d = 1, .q = 1}).num_params(), 3u);
}

TEST(Arima, ValidatesConstruction) {
  EXPECT_THROW(ArimaForecaster(ArimaOrder{.d = 3}), InvalidArgument);
  EXPECT_THROW(ArimaForecaster(ArimaOrder{.sd = 2, .season = 12}),
               InvalidArgument);
  EXPECT_THROW(ArimaForecaster(ArimaOrder{.sp = 1, .season = 0}),
               InvalidArgument);
}

TEST(Arima, UsageBeforeFitThrows) {
  ArimaForecaster f(ArimaOrder{.p = 1});
  EXPECT_THROW(f.forecast(1), InvalidState);
  EXPECT_THROW(f.update(0.1), InvalidState);
  EXPECT_THROW(f.css(), InvalidState);
  EXPECT_THROW(f.aicc(), InvalidState);
}

TEST(Arima, TooShortSeriesThrows) {
  ArimaForecaster f(ArimaOrder{.p = 1});
  const std::vector<double> tiny{0.1, 0.2, 0.3};
  EXPECT_THROW(f.fit(tiny), NumericalError);
}

TEST(Arima, RecoversAr1Coefficient) {
  const std::vector<double> x = ar1_series(0.7, 0.5, 4000, 0.05, 1);
  ArimaForecaster f(ArimaOrder{.p = 1, .d = 0, .q = 0});
  f.fit(x);
  // coefficients layout: [phi_1, mean]
  EXPECT_NEAR(f.coefficients()[0], 0.7, 0.06);
  EXPECT_NEAR(f.coefficients()[1], 0.5, 0.05);
}

TEST(Arima, Ar1ForecastDecaysTowardMean) {
  const std::vector<double> x = ar1_series(0.8, 0.4, 3000, 0.05, 2);
  ArimaForecaster f(ArimaOrder{.p = 1});
  f.fit(x);
  const double f1 = f.forecast(1);
  const double f100 = f.forecast(100);
  // Long-horizon forecast approaches the series mean.
  EXPECT_NEAR(f100, 0.4, 0.05);
  // One-step forecast is between the last value and the mean.
  const double last = x.back();
  EXPECT_LE(std::min(last, 0.4) - 0.1, f1);
  EXPECT_GE(std::max(last, 0.4) + 0.1, f1);
}

TEST(Arima, RandomWalkWithDriftViaDifferencing) {
  // x_t = x_{t-1} + 0.01 + noise  ->  ARIMA(0,1,0) forecast extends drift.
  Rng rng(3);
  std::vector<double> x(1500);
  x[0] = 0.0;
  for (std::size_t t = 1; t < x.size(); ++t) {
    x[t] = x[t - 1] + 0.01 + rng.normal(0.0, 0.002);
  }
  ArimaForecaster f(ArimaOrder{.p = 0, .d = 1, .q = 0});
  f.fit(x);
  // With d=1 and no ARMA terms, the forecast holds the last value (no mean
  // term is estimated under differencing in this implementation).
  EXPECT_NEAR(f.forecast(1), x.back(), 0.05);
}

TEST(Arima, Ma1ResidualsShrinkCss) {
  // Pure MA(1): fitting with q=1 must fit better (lower sigma2) than white
  // noise would suggest fitting worse... compare against q=0 fit.
  Rng rng(4);
  std::vector<double> e(2001);
  for (double& v : e) v = rng.normal(0.0, 0.1);
  std::vector<double> x(2000);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = 0.5 + e[t + 1] + 0.6 * e[t];
  }
  ArimaForecaster ma(ArimaOrder{.p = 0, .d = 0, .q = 1});
  ma.fit(x);
  ArimaForecaster wn(ArimaOrder{.p = 0, .d = 0, .q = 0});
  wn.fit(x);
  EXPECT_LT(ma.sigma2(), wn.sigma2());
  EXPECT_LT(ma.aicc(), wn.aicc());
}

TEST(Arima, UpdateExtendsSeriesConsistently) {
  const std::vector<double> x = ar1_series(0.6, 0.5, 1200, 0.05, 5);
  // Fit on the full series vs fit on a prefix + updates: forecasts from the
  // same data must agree closely (same coefficients path differs only via
  // the optimizer, so fit prefix == fit full is not required; instead check
  // update() keeps the forecast finite and in a sane range).
  ArimaForecaster f(ArimaOrder{.p = 1});
  f.fit(std::span<const double>(x.data(), 1000));
  for (std::size_t t = 1000; t < x.size(); ++t) f.update(x[t]);
  const double fc = f.forecast(5);
  EXPECT_TRUE(std::isfinite(fc));
  EXPECT_NEAR(fc, 0.5, 0.3);
}

TEST(Arima, SeasonalModelTracksSeasonality) {
  // Strong period-12 seasonal pattern plus noise.
  Rng rng(6);
  std::vector<double> x(1200);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = 0.5 +
           0.3 * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) /
                          12.0) +
           rng.normal(0.0, 0.02);
  }
  ArimaForecaster f(
      ArimaOrder{.p = 0, .d = 0, .q = 0, .sp = 1, .sd = 1, .sq = 0,
                 .season = 12});
  f.fit(x);
  // Forecast one full season ahead: should match the seasonal value.
  for (std::size_t h = 1; h <= 12; ++h) {
    const std::size_t idx = x.size() + h - 1;
    const double expected =
        0.5 + 0.3 * std::sin(2.0 * std::numbers::pi *
                             static_cast<double>(idx) / 12.0);
    EXPECT_NEAR(f.forecast(h), expected, 0.1) << "h = " << h;
  }
}

TEST(Arima, ForecastHorizonZeroRejected) {
  const std::vector<double> x = ar1_series(0.5, 0.5, 500, 0.05, 7);
  ArimaForecaster f(ArimaOrder{.p = 1});
  f.fit(x);
  EXPECT_THROW(f.forecast(0), InvalidArgument);
}

TEST(Arima, ConstantSeriesIsHandled) {
  std::vector<double> x(300, 0.42);
  ArimaForecaster f(ArimaOrder{.p = 1});
  f.fit(x);
  EXPECT_NEAR(f.forecast(10), 0.42, 1e-6);
}

// ---- AutoArima ----------------------------------------------------------

TEST(AutoArima, SelectsSomeModelAndForecasts) {
  const std::vector<double> x = ar1_series(0.75, 0.5, 1500, 0.05, 8);
  AutoArimaForecaster f(ArimaGrid{.max_p = 2, .max_d = 1, .max_q = 1});
  f.fit(x);
  EXPECT_TRUE(f.is_fitted());
  EXPECT_FALSE(f.candidates().empty());
  EXPECT_TRUE(std::isfinite(f.forecast(10)));
}

TEST(AutoArima, PrefersArOverWhiteNoiseForArData) {
  const std::vector<double> x = ar1_series(0.85, 0.5, 3000, 0.05, 9);
  AutoArimaForecaster f(ArimaGrid{.max_p = 1, .max_d = 0, .max_q = 0});
  f.fit(x);
  EXPECT_EQ(f.selected().order().p, 1u);
}

TEST(AutoArima, SelectedAiccIsMinimal) {
  const std::vector<double> x = ar1_series(0.6, 0.5, 1000, 0.05, 10);
  AutoArimaForecaster f(ArimaGrid{.max_p = 2, .max_d = 1, .max_q = 2});
  f.fit(x);
  const double best = f.selected().aicc();
  for (const ArimaCandidate& c : f.candidates()) {
    EXPECT_GE(c.aicc, best - 1e-9) << c.order.to_string();
  }
}

TEST(AutoArima, UsageBeforeFitThrows) {
  AutoArimaForecaster f;
  EXPECT_THROW(f.forecast(1), InvalidState);
  EXPECT_THROW(f.update(0.0), InvalidState);
  EXPECT_THROW(f.selected(), InvalidState);
}

TEST(AutoArima, TooShortSeriesThrows) {
  AutoArimaForecaster f;
  EXPECT_THROW(f.fit(std::vector<double>{0.1, 0.2}), NumericalError);
}

TEST(AutoArima, PaperGridMatchesPaperRanges) {
  const ArimaGrid g = ArimaGrid::paper_grid(288);
  EXPECT_EQ(g.max_p, 5u);
  EXPECT_EQ(g.max_d, 2u);
  EXPECT_EQ(g.max_q, 5u);
  EXPECT_EQ(g.max_sp, 2u);
  EXPECT_EQ(g.max_sd, 1u);
  EXPECT_EQ(g.max_sq, 2u);
  EXPECT_EQ(g.season, 288u);
}

// ---- Differential oracle: fit() against a sequential scalar CSS fit ----

using Terms = std::vector<std::pair<std::size_t, double>>;

/// ARIMA's expanded lag polynomials for params laid out as
/// [phi, theta, PHI, THETA, (mean)].
void reference_polys(const ArimaOrder& o, std::span<const double> params,
                     Terms& ar, Terms& ma, double& mean) {
  const std::size_t s = o.season;
  const double* phi = params.data();
  const double* theta = phi + o.p;
  const double* sphi = theta + o.q;
  const double* stheta = sphi + o.sp;
  mean = o.needs_mean() ? stheta[o.sq] : 0.0;
  ar.clear();
  ma.clear();
  for (std::size_t i = 0; i < o.p; ++i) ar.emplace_back(i + 1, phi[i]);
  for (std::size_t I = 0; I < o.sp; ++I) {
    ar.emplace_back(s * (I + 1), sphi[I]);
    for (std::size_t i = 0; i < o.p; ++i) {
      ar.emplace_back(s * (I + 1) + i + 1, -phi[i] * sphi[I]);
    }
  }
  for (std::size_t j = 0; j < o.q; ++j) ma.emplace_back(j + 1, theta[j]);
  for (std::size_t J = 0; J < o.sq; ++J) {
    ma.emplace_back(s * (J + 1), stheta[J]);
    for (std::size_t j = 0; j < o.q; ++j) {
      ma.emplace_back(s * (J + 1) + j + 1, theta[j] * stheta[J]);
    }
  }
}

/// The penalized CSS objective fit() minimizes, one vector at a time.
double reference_objective(const ArimaOrder& o, const std::vector<double>& w,
                           std::span<const double> params) {
  Terms ar, ma;
  double mean = 0.0;
  reference_polys(o, params, ar, ma, mean);
  std::size_t max_ar_lag = 0;
  double ar_abs = 0.0, ma_abs = 0.0;
  for (const auto& [lag, a] : ar) {
    max_ar_lag = std::max(max_ar_lag, lag);
    ar_abs += std::fabs(a);
  }
  for (const auto& term : ma) ma_abs += std::fabs(term.second);
  std::vector<double> e(w.size(), 0.0);
  double css = 0.0;
  for (std::size_t t = 0; t < w.size(); ++t) {
    double acc = w[t] - mean;
    for (const auto& [lag, a] : ar) {
      if (t >= lag) acc -= a * (w[t - lag] - mean);
    }
    for (const auto& [lag, b] : ma) {
      if (t >= lag) acc -= b * e[t - lag];
    }
    e[t] = acc;
    if (t >= max_ar_lag) css += acc * acc;
  }
  const double excess_ar = std::max(0.0, ar_abs - 0.999);
  const double excess_ma = std::max(0.0, ma_abs - 0.999);
  return css * (1.0 + 50.0 * (excess_ar + excess_ma)) +
         static_cast<double>(w.size()) * (excess_ar + excess_ma);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ArimaOracle, BatchedFitMatchesSequentialScalarFit) {
  Rng rng(31);
  std::vector<double> x(480);
  for (std::size_t t = 0; t < x.size(); ++t) {
    const double tt = static_cast<double>(t);
    x[t] = 0.5 + 0.2 * std::sin(2.0 * std::numbers::pi * tt / 12.0) +
           0.0004 * tt + rng.normal(0.0, 0.03);
  }
  const std::vector<ArimaOrder> orders{
      {.p = 2, .d = 0, .q = 1},
      {.p = 1, .d = 0, .q = 0},
      {.p = 0, .d = 1, .q = 2},
      {.p = 2, .d = 1, .q = 0},
      {.p = 1, .d = 0, .q = 1, .sp = 1, .sd = 0, .sq = 1, .season = 12},
      {.p = 0, .d = 1, .q = 1, .sp = 0, .sd = 1, .sq = 1, .season = 12},
  };
  for (const ArimaOrder& order : orders) {
    SCOPED_TRACE(order.to_string());
    ArimaForecaster model(order);
    model.fit(x);

    std::vector<double> w = x;
    for (std::size_t i = 0; i < order.sd; ++i) {
      for (std::size_t t = w.size(); t-- > order.season;) {
        w[t] -= w[t - order.season];
      }
      w.erase(w.begin(), w.begin() + static_cast<std::ptrdiff_t>(order.season));
    }
    for (std::size_t i = 0; i < order.d; ++i) {
      for (std::size_t t = w.size(); t-- > 1;) w[t] -= w[t - 1];
      w.erase(w.begin());
    }
    std::vector<double> x0(order.num_params(), 0.1);
    if (order.needs_mean()) {
      double m = 0.0;
      for (const double v : w) m += v;
      x0.back() = m / static_cast<double>(w.size());
    }
    const auto want = oracle::nelder_mead_reference(
        [&](std::span<const double> p) {
          return reference_objective(order, w, p);
        },
        x0, ArimaOptions{}.optimizer);

    const std::vector<double>& got = model.coefficients();
    ASSERT_EQ(got.size(), want.result.x.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(same_bits(got[i], want.result.x[i]))
          << "coefficient " << i << ": " << got[i] << " vs "
          << want.result.x[i];
    }
    // No penalty applies at these optima, so the objective is the CSS.
    EXPECT_TRUE(same_bits(model.css(), want.result.value))
        << model.css() << " vs " << want.result.value;
  }
}

// ---- prediction intervals -------------------------------------------------

/// The textbook model with unbounded state: the whole raw series, every
/// differencing level and every residual, each grown one value per
/// observation, and forecasts read straight from them.
class UnboundedArima {
 public:
  UnboundedArima(const ArimaOrder& order, std::span<const double> params)
      : order_(order), chain_(1 + order.sd + order.d) {
    reference_polys(order, params, ar_, ma_, mean_);
    for (const auto& term : ar_) max_ar_lag_ = std::max(max_ar_lag_, term.first);
  }

  void observe(double x) {
    chain_[0].push_back(x);
    for (std::size_t level = 1; level < chain_.size(); ++level) {
      const std::vector<double>& below = chain_[level - 1];
      const std::size_t lag = level <= order_.sd ? order_.season : 1;
      if (below.size() <= lag) return;
      chain_[level].push_back(below.back() - below[below.size() - 1 - lag]);
    }
    const std::vector<double>& w = chain_.back();
    const std::size_t t = w.size() - 1;
    double acc = w[t] - mean_;
    for (const auto& [lag, a] : ar_) {
      if (t >= lag) acc -= a * (w[t - lag] - mean_);
    }
    for (const auto& [lag, b] : ma_) {
      if (t >= lag) acc -= b * e_[t - lag];
    }
    e_.push_back(acc);
    if (t >= max_ar_lag_) css_ += acc * acc;
  }

  double css() const { return css_; }

  double forecast(std::size_t h) const {
    const std::vector<double>& w = chain_.back();
    const std::size_t n = w.size();
    std::vector<double> fc(h);
    for (std::size_t tau = 0; tau < h; ++tau) {
      double acc = 0.0;
      for (const auto& [lag, a] : ar_) {
        const std::size_t t = n + tau - lag;
        acc += a * (t < n ? w[t] - mean_ : fc[t - n]);
      }
      for (const auto& [lag, b] : ma_) {
        const std::size_t t = n + tau - lag;
        acc += b * (t < n ? e_[t] : 0.0);
      }
      fc[tau] = acc;
    }
    for (double& v : fc) v += mean_;
    for (std::size_t level = chain_.size() - 1; level > 0; --level) {
      const std::vector<double>& base = chain_[level - 1];
      const std::size_t lag = level <= order_.sd ? order_.season : 1;
      for (std::size_t tau = 0; tau < h; ++tau) {
        const std::size_t t = base.size() + tau - lag;
        fc[tau] = (t < base.size() ? base[t] : fc[t - base.size()]) + fc[tau];
      }
    }
    return fc[h - 1];
  }

 private:
  ArimaOrder order_;
  Terms ar_, ma_;
  double mean_ = 0.0;
  std::size_t max_ar_lag_ = 0;
  std::vector<std::vector<double>> chain_;
  std::vector<double> e_;
  double css_ = 0.0;
};

TEST(ArimaOracle, BoundedStateMatchesUnboundedRecursion) {
  constexpr std::size_t kFit = 240;
  constexpr std::size_t kUpdates = 20000;
  Rng rng(47);
  std::vector<double> x(kFit + kUpdates);
  double state = 0.0;
  for (std::size_t t = 0; t < x.size(); ++t) {
    state = 0.6 * state + rng.normal(0.0, 0.03);
    x[t] = 0.5 + 0.1 * std::sin(2.0 * std::numbers::pi *
                                static_cast<double>(t) / 12.0) +
           state;
  }
  const std::vector<ArimaOrder> orders{
      {.p = 2, .d = 0, .q = 1},
      {.p = 1, .d = 1, .q = 1},
      {.p = 1, .d = 0, .q = 1, .sp = 1, .sd = 1, .sq = 1, .season = 12},
  };
  for (const ArimaOrder& order : orders) {
    SCOPED_TRACE(order.to_string());
    ArimaForecaster model(order);
    model.fit(std::span<const double>(x).first(kFit));
    UnboundedArima reference(order, model.coefficients());
    for (std::size_t t = 0; t < kFit; ++t) reference.observe(x[t]);
    for (std::size_t u = 0; u <= kUpdates; ++u) {
      if (u % 1000 == 0) {
        EXPECT_TRUE(same_bits(model.css(), reference.css())) << "update " << u;
        for (const std::size_t h : {1, 2, 13, 48}) {
          const double got = model.forecast(h);
          const double want = reference.forecast(h);
          ASSERT_TRUE(same_bits(got, want))
              << "update " << u << " h " << h << ": " << got << " vs "
              << want;
        }
      }
      if (u < kUpdates) {
        model.update(x[kFit + u]);
        reference.observe(x[kFit + u]);
      }
    }
  }
}

// ---- Lockstep refits against one-by-one fits ----

/// A centroid-like series: a daily cycle plus AR(1) noise, its own per seed.
std::vector<double> centroid_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const double phi = 0.5 + 0.45 * rng.uniform();
  const double level = 0.3 + 0.4 * rng.uniform();
  std::vector<double> x(n);
  double state = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    state = phi * state + rng.normal(0.0, 0.03);
    x[t] = level +
           0.1 * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) /
                          48.0) +
           state;
  }
  return x;
}

/// The optimizer settings the lockstep models cycle through: the default
/// search, one capped at a few iterations (it runs to max_iterations), and
/// one with loose tolerances (it converges early).
ArimaOptions lockstep_options(std::size_t i) {
  ArimaOptions o;
  if (i % 3 == 1) o.optimizer.max_iterations = 12;
  if (i % 3 == 2) o.optimizer.f_tolerance = o.optimizer.x_tolerance = 1e-3;
  return o;
}

class KernelPathGuard {
 public:
  KernelPathGuard() : saved_(kern::active_path()) {}
  ~KernelPathGuard() { kern::set_path(saved_); }

 private:
  kern::Path saved_;
};

std::vector<kern::Path> kernel_paths() {
  std::vector<kern::Path> paths{kern::Path::kScalar};
  if (kern::simd_supported()) paths.push_back(kern::Path::kSimd);
  return paths;
}

void expect_same_fit(const ArimaForecaster& got, const ArimaForecaster& want) {
  ASSERT_TRUE(got.is_fitted());
  ASSERT_EQ(got.coefficients().size(), want.coefficients().size());
  for (std::size_t i = 0; i < got.coefficients().size(); ++i) {
    EXPECT_TRUE(same_bits(got.coefficients()[i], want.coefficients()[i]))
        << "coefficient " << i;
  }
  EXPECT_TRUE(same_bits(got.css(), want.css()))
      << got.css() << " vs " << want.css();
  for (std::size_t h = 1; h <= 48; ++h) {
    ASSERT_TRUE(same_bits(got.forecast(h), want.forecast(h))) << "h " << h;
  }
}

/// Fits `count` models of `order` in lockstep and one by one, on series of
/// one length, and compares them bitwise.
void check_lockstep(const ArimaOrder& order, std::size_t count,
                    std::size_t length) {
  std::vector<std::vector<double>> series;
  std::vector<ArimaForecaster> together, alone;
  for (std::size_t i = 0; i < count; ++i) {
    series.push_back(centroid_series(length, 100 + i));
    together.emplace_back(order, lockstep_options(i));
    alone.emplace_back(order, lockstep_options(i));
  }
  std::vector<ArimaForecaster*> models;
  for (ArimaForecaster& m : together) models.push_back(&m);
  const std::vector<std::span<const double>> spans(series.begin(),
                                                   series.end());
  ArimaForecaster::fit_lockstep(models, spans);
  for (std::size_t i = 0; i < count; ++i) {
    SCOPED_TRACE(::testing::Message() << "model " << i << " of " << count);
    alone[i].fit(series[i]);
    expect_same_fit(together[i], alone[i]);
  }
}

TEST(ArimaLockstep, MatchesOneByOneFitBitwise) {
  KernelPathGuard guard;
  const std::vector<ArimaOrder> orders{
      {.p = 2, .d = 0, .q = 1},
      {.p = 1, .d = 1, .q = 1, .sp = 0, .sd = 1, .sq = 1, .season = 12},
  };
  for (const kern::Path path : kernel_paths()) {
    kern::set_path(path);
    for (const ArimaOrder& order : orders) {
      for (const std::size_t count : {1, 2, 3, 6, 20}) {
        SCOPED_TRACE(::testing::Message()
                     << "path " << static_cast<int>(path) << " "
                     << order.to_string() << " x " << count);
        check_lockstep(order, count, 240);
      }
    }
  }
}

// The searches check_lockstep runs end every way a search can: converged,
// at max_iterations, and after shrinking the simplex.
TEST(ArimaLockstep, SearchesConvergeRunOutAndShrink) {
  const ArimaOrder order{.p = 2, .d = 0, .q = 1};
  std::size_t converged = 0, capped = 0, shrinks = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const std::vector<double> w = centroid_series(240, 100 + i);
    std::vector<double> x0(order.num_params(), 0.1);
    double m = 0.0;
    for (const double v : w) m += v;
    x0.back() = m / static_cast<double>(w.size());
    const ArimaOptions options = lockstep_options(i);
    const auto run = oracle::nelder_mead_reference(
        [&](std::span<const double> p) {
          return reference_objective(order, w, p);
        },
        x0, options.optimizer);
    converged += run.result.converged ? 1 : 0;
    capped += run.result.iterations == options.optimizer.max_iterations &&
                      !run.result.converged
                  ? 1
                  : 0;
    shrinks += run.shrinks;
    ArimaForecaster model(order, options);
    model.fit(w);
    for (std::size_t k = 0; k < x0.size(); ++k) {
      EXPECT_TRUE(same_bits(model.coefficients()[k], run.result.x[k]))
          << "model " << i << " coefficient " << k;
    }
  }
  EXPECT_GE(converged, 5u);
  EXPECT_GE(capped, 5u);
  EXPECT_GE(shrinks, 1u);
}

TEST(ArimaLockstep, MixedOrdersOrLengthsAreRefused) {
  const ArimaOrder order{.p = 2, .d = 0, .q = 1};
  std::vector<ArimaForecaster> models{ArimaForecaster(order),
                                      ArimaForecaster({.p = 1, .d = 1}),
                                      ArimaForecaster(order)};
  const std::vector<double> w = centroid_series(200, 1);
  const std::span<const double> whole(w);
  std::vector<ArimaForecaster*> mixed_orders{&models[0], &models[1]};
  EXPECT_THROW(
      ArimaForecaster::fit_lockstep(
          mixed_orders, std::vector<std::span<const double>>{whole, whole}),
      InvalidArgument);
  std::vector<ArimaForecaster*> one_order{&models[0], &models[2]};
  EXPECT_THROW(ArimaForecaster::fit_lockstep(
                   one_order, std::vector<std::span<const double>>{
                                  whole, whole.first(w.size() - 1)}),
               InvalidArgument);
  for (const ArimaForecaster& m : models) EXPECT_FALSE(m.is_fitted());
}

TEST(ArimaLockstep, TooShortSeriesThrowsBeforeAnyModelChanges) {
  const ArimaOrder order{.p = 2, .d = 0, .q = 1};
  std::vector<ArimaForecaster> models(3, ArimaForecaster(order));
  const std::vector<double> longer = centroid_series(200, 1);
  const std::span<const double> tiny =
      std::span<const double>(longer).first(models[0].min_series_length() -
                                            1);
  std::vector<ArimaForecaster*> due{&models[0], &models[1], &models[2]};
  const std::vector<std::span<const double>> series{tiny, tiny, tiny};
  EXPECT_THROW(ArimaForecaster::fit_lockstep(due, series), NumericalError);
  for (const ArimaForecaster& m : models) EXPECT_FALSE(m.is_fitted());
  EXPECT_THROW(models[1].fit(tiny), NumericalError);
  models[1].fit(std::span<const double>(longer).first(tiny.size() + 1));
  EXPECT_TRUE(models[1].is_fitted());
}

// ManagedForecaster::observe_all against observe() one model at a time:
// three ARIMA(2,0,1) models refit in lockstep, an ARIMA(1,1,0) model of
// another order fits alone, and a seasonal model whose history is still
// too short at its first scheduled fits stays in the fallback regime, then
// fits alone once its history is long enough.
TEST(ArimaLockstep, ObserveAllMatchesObserveOneByOne) {
  const RetrainSchedule schedule{.initial_steps = 40, .retrain_interval = 30};
  const ArimaOrder seasonal{.p = 1, .sd = 1, .season = 60};
  const auto make = [&](std::size_t i) {
    const ArimaOrder order = i == 3   ? seasonal
                             : i == 4 ? ArimaOrder{.p = 1, .d = 1}
                                      : ArimaOrder{.p = 2, .q = 1};
    return ManagedForecaster(std::make_unique<ArimaForecaster>(order),
                             schedule);
  };
  constexpr std::size_t kModels = 5;
  std::vector<ManagedForecaster> together, alone;
  std::vector<std::vector<double>> series;
  for (std::size_t i = 0; i < kModels; ++i) {
    together.push_back(make(i));
    alone.push_back(make(i));
    series.push_back(centroid_series(200, 500 + i));
  }
  std::vector<double> values(kModels);
  for (std::size_t t = 0; t < 200; ++t) {
    for (std::size_t i = 0; i < kModels; ++i) {
      values[i] = series[i][t];
      alone[i].observe(values[i]);
    }
    ManagedForecaster::observe_all(together, values);
    for (std::size_t i = 0; i < kModels; ++i) {
      ASSERT_EQ(together[i].fits_completed(), alone[i].fits_completed())
          << "t " << t << " model " << i;
      for (const std::size_t h : {1, 5, 48}) {
        ASSERT_TRUE(same_bits(together[i].forecast(h), alone[i].forecast(h)))
            << "t " << t << " model " << i << " h " << h;
      }
    }
  }
  // The seasonal model missed its first fits (t = 39, 69) and fit from
  // t = 99 on; the others fit at every scheduled step.
  EXPECT_EQ(together[0].fits_completed(), 6u);
  EXPECT_EQ(together[3].fits_completed(), 4u);
  EXPECT_EQ(together[4].fits_completed(), 6u);
}

TEST(ArimaIntervals, Ar1VarianceMatchesTheory) {
  // For AR(1), se_h^2 = sigma^2 * (1 - phi^(2h)) / (1 - phi^2).
  const double phi = 0.8;
  const std::vector<double> x = ar1_series(phi, 0.5, 6000, 0.05, 12);
  ArimaForecaster f(ArimaOrder{.p = 1});
  f.fit(x);
  const double sigma = std::sqrt(f.sigma2());
  for (const std::size_t h : {1u, 2u, 5u, 20u}) {
    const double expected =
        sigma * std::sqrt((1.0 - std::pow(phi, 2.0 * h)) /
                          (1.0 - phi * phi));
    EXPECT_NEAR(f.forecast_stddev(h), expected, 0.15 * expected)
        << "h = " << h;
  }
}

TEST(ArimaIntervals, WidenWithHorizon) {
  const std::vector<double> x = ar1_series(0.7, 0.5, 2000, 0.05, 13);
  ArimaForecaster f(ArimaOrder{.p = 1, .q = 1});
  f.fit(x);
  double prev = 0.0;
  for (const std::size_t h : {1u, 5u, 10u, 30u}) {
    const double se = f.forecast_stddev(h);
    EXPECT_GE(se, prev);
    prev = se;
  }
}

TEST(ArimaIntervals, RandomWalkVarianceGrowsLinearly) {
  // ARIMA(0,1,0): se_h = sigma * sqrt(h).
  Rng rng(14);
  std::vector<double> x(2000);
  x[0] = 0.0;
  for (std::size_t t = 1; t < x.size(); ++t) {
    x[t] = x[t - 1] + rng.normal(0.0, 0.01);
  }
  ArimaForecaster f(ArimaOrder{.p = 0, .d = 1, .q = 0});
  f.fit(x);
  const double sigma = std::sqrt(f.sigma2());
  EXPECT_NEAR(f.forecast_stddev(4), 2.0 * sigma, 0.1 * sigma);
  EXPECT_NEAR(f.forecast_stddev(9), 3.0 * sigma, 0.1 * sigma);
}

TEST(ArimaIntervals, IntervalBracketsPointForecast) {
  const std::vector<double> x = ar1_series(0.6, 0.4, 1000, 0.04, 15);
  ArimaForecaster f(ArimaOrder{.p = 1});
  f.fit(x);
  const ArimaForecaster::Interval iv = f.forecast_interval(5, 0.95);
  EXPECT_LT(iv.lower, iv.point);
  EXPECT_GT(iv.upper, iv.point);
  EXPECT_NEAR(iv.point, f.forecast(5), 1e-12);
  // 99% interval is wider than 80%.
  const auto wide = f.forecast_interval(5, 0.99);
  const auto narrow = f.forecast_interval(5, 0.80);
  EXPECT_GT(wide.upper - wide.lower, narrow.upper - narrow.lower);
}

TEST(ArimaIntervals, EmpiricalCoverageIsRoughlyNominal) {
  // Fit on a prefix, then check that ~95% of later one-step truths fall in
  // the 95% interval.
  const double phi = 0.75;
  const std::vector<double> x = ar1_series(phi, 0.5, 3000, 0.05, 16);
  ArimaForecaster f(ArimaOrder{.p = 1});
  f.fit(std::span<const double>(x.data(), 2000));
  std::size_t covered = 0;
  std::size_t total = 0;
  for (std::size_t t = 2000; t < x.size(); ++t) {
    const auto iv = f.forecast_interval(1, 0.95);
    if (x[t] >= iv.lower && x[t] <= iv.upper) ++covered;
    ++total;
    f.update(x[t]);
  }
  const double coverage =
      static_cast<double>(covered) / static_cast<double>(total);
  EXPECT_GT(coverage, 0.90);
  EXPECT_LT(coverage, 0.99);
}

TEST(ArimaIntervals, Validates) {
  const std::vector<double> x = ar1_series(0.5, 0.5, 500, 0.05, 17);
  ArimaForecaster f(ArimaOrder{.p = 1});
  EXPECT_THROW(f.forecast_stddev(1), InvalidState);  // before fit
  f.fit(x);
  EXPECT_THROW(f.forecast_stddev(0), InvalidArgument);
  EXPECT_THROW(f.forecast_interval(1, 0.0), InvalidArgument);
  EXPECT_THROW(f.forecast_interval(1, 1.0), InvalidArgument);
}

// Property sweep: forecasts of a fitted AR(1) stay within the data's
// plausible envelope for a range of horizons.
class ArimaHorizonTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ArimaHorizonTest, ForecastsStayBounded) {
  const std::size_t h = GetParam();
  const std::vector<double> x = ar1_series(0.8, 0.5, 2000, 0.05, 11);
  ArimaForecaster f(ArimaOrder{.p = 1, .d = 0, .q = 1});
  f.fit(x);
  const double fc = f.forecast(h);
  EXPECT_TRUE(std::isfinite(fc));
  EXPECT_GT(fc, 0.0);
  EXPECT_LT(fc, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Horizons, ArimaHorizonTest,
                         ::testing::Values(1, 5, 10, 25, 50));

}  // namespace
}  // namespace resmon::forecast
