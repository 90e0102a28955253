// Seasonal ARIMA forecasting (§V-C, §VI-A3).
//
// Model: ARIMA(p,d,q)(P,D,Q)_s. The series is differenced d times at lag 1
// and D times at lag s; the differenced series follows a multiplicative
// seasonal ARMA whose combined lag polynomials are expanded once and kept as
// sparse (lag, coefficient) lists. Coefficients are estimated by minimizing
// the conditional sum of squares (CSS) with Nelder-Mead; model order is
// selected with the bias-corrected Akaike information criterion (AICc), as
// in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/optim.hpp"
#include "forecast/forecaster.hpp"

namespace resmon::forecast {

/// Seasonal ARIMA order. `season == 0` (or all of sp/sd/sq zero) disables
/// the seasonal part.
struct ArimaOrder {
  std::size_t p = 1;   ///< autoregressive order
  std::size_t d = 0;   ///< regular differencing
  std::size_t q = 0;   ///< moving-average order
  std::size_t sp = 0;  ///< seasonal AR order (paper's P)
  std::size_t sd = 0;  ///< seasonal differencing (paper's D)
  std::size_t sq = 0;  ///< seasonal MA order (paper's Q)
  std::size_t season = 0;  ///< seasonal period s (e.g. 288 = 1 day @ 5 min)

  bool has_seasonal() const {
    return season > 1 && (sp > 0 || sd > 0 || sq > 0);
  }
  /// A constant term is estimated only when no differencing is applied.
  bool needs_mean() const { return d == 0 && sd == 0; }
  /// Number of free coefficients (excluding sigma^2).
  std::size_t num_params() const {
    return p + q + sp + sq + (needs_mean() ? 1 : 0);
  }
  std::string to_string() const;
};

struct ArimaOptions {
  optim::NelderMeadOptions optimizer{.max_iterations = 400,
                                     .initial_step = 0.2,
                                     .f_tolerance = 1e-10,
                                     .x_tolerance = 1e-8};
};

/// Fixed-order seasonal ARIMA model.
class ArimaForecaster final : public Forecaster {
 public:
  explicit ArimaForecaster(const ArimaOrder& order,
                           const ArimaOptions& options = {});

  void fit(std::span<const double> series) override;
  void update(double value) override;
  double forecast(std::size_t h) const override;
  bool is_fitted() const override { return fitted_; }
  std::string name() const override { return "ARIMA" + order_.to_string(); }

  const ArimaOrder& order() const { return order_; }
  double css() const;     ///< conditional sum of squares at the optimum
  double sigma2() const;  ///< residual variance estimate
  double aicc() const;    ///< corrected AIC (model selection criterion)

  /// A point forecast with a symmetric prediction interval.
  struct Interval {
    double lower = 0.0;
    double point = 0.0;
    double upper = 0.0;
  };

  /// Standard error of the h-step-ahead forecast, from the psi-weight
  /// expansion of the (possibly differenced) model:
  /// se_h = sigma * sqrt(sum_{i=0}^{h-1} psi_i^2).
  double forecast_stddev(std::size_t h) const;

  /// Point forecast with a normal prediction interval at the given
  /// confidence level (default 95%).
  Interval forecast_interval(std::size_t h, double confidence = 0.95) const;

  /// Estimated coefficients in the layout [phi, theta, PHI, THETA, (mean)].
  const std::vector<double>& coefficients() const { return params_; }

 private:
  /// The newest values of an unbounded series, in a power-of-two ring at
  /// least `depth` deep: value t (0-based over the whole series) is
  /// readable while t >= size() - depth.
  class Ring {
   public:
    /// Keeps the newest values of `series`, with size() == series.size().
    void assign(std::size_t depth, std::span<const double> series);
    void push(double value) { buf_[size_++ & mask_] = value; }
    double operator[](std::size_t t) const { return buf_[t & mask_]; }
    double back() const { return (*this)[size_ - 1]; }
    std::size_t size() const { return size_; }

   private:
    std::vector<double> buf_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
  };

  ArimaOrder order_;
  ArimaOptions options_;
  bool fitted_ = false;

  std::vector<double> params_;
  // Combined sparse lag polynomials of the fitted model:
  //   wc_t = sum(ar) a * wc_{t-lag} + sum(ma) b * e_{t-lag} + e_t
  std::vector<std::pair<std::size_t, double>> ar_lags_;
  std::vector<std::pair<std::size_t, double>> ma_lags_;
  double mean_ = 0.0;
  std::size_t max_ar_lag_ = 0;  ///< deepest AR lag (hoisted for update())

  // Differencing chain: chain_[0] is the raw series; then sd seasonal
  // differences, then d regular differences; chain_.back() is w. Each level
  // and the residuals keep only what update() and forecast() read: the
  // deepest AR lag, MA lag or season, plus the newest value.
  std::vector<Ring> chain_;
  Ring residuals_;  // e_t over w (zero-initialized recursion)
  // Running CSS and its term count over the whole series.
  double css_ = 0.0;
  std::size_t n_effective_ = 0;
};

/// Order-search ranges for AutoArima. The defaults are a reduced grid that
/// keeps bench runtime reasonable; paper_grid() restores the paper's ranges
/// (p,q in [0,5], d in [0,2], P,Q in [0,2], D in [0,1]).
struct ArimaGrid {
  std::size_t max_p = 2;
  std::size_t max_d = 1;
  std::size_t max_q = 2;
  std::size_t max_sp = 1;
  std::size_t max_sd = 1;
  std::size_t max_sq = 1;
  std::size_t season = 0;  ///< 0 = non-seasonal search only

  static ArimaGrid paper_grid(std::size_t season);
};

/// Result of one grid-search candidate fit.
struct ArimaCandidate {
  ArimaOrder order;
  double aicc = 0.0;
};

/// ARIMA with automatic order selection: fit() grid-searches the order by
/// AICc and keeps the best model (ties broken toward fewer parameters).
class AutoArimaForecaster final : public Forecaster {
 public:
  explicit AutoArimaForecaster(const ArimaGrid& grid = {},
                               const ArimaOptions& options = {});

  void fit(std::span<const double> series) override;
  void update(double value) override;
  double forecast(std::size_t h) const override;
  bool is_fitted() const override { return model_ != nullptr; }
  std::string name() const override;

  /// The selected model (valid after fit()).
  const ArimaForecaster& selected() const;

  /// All candidate orders evaluated in the last fit, with their AICc.
  const std::vector<ArimaCandidate>& candidates() const {
    return candidates_;
  }

 private:
  ArimaGrid grid_;
  ArimaOptions options_;
  std::unique_ptr<ArimaForecaster> model_;
  std::vector<ArimaCandidate> candidates_;
};

}  // namespace resmon::forecast
