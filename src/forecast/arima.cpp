#include "forecast/arima.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.hpp"
#include "common/kernels.hpp"
#include "common/stats.hpp"

namespace resmon::forecast {

namespace {

/// (lag, coefficient) terms of one side of a lag polynomial.
using Terms = std::vector<std::pair<std::size_t, double>>;

/// Combined sparse lag polynomials of a multiplicative seasonal ARMA, plus
/// the mean term, built from a flat parameter vector laid out as
/// [phi_1..phi_p, theta_1..theta_q, PHI_1..PHI_sp, THETA_1..THETA_sq, (mean)].
struct Polys {
  Terms ar;
  Terms ma;
  double mean = 0.0;
  std::size_t max_ar_lag = 0;
  double ar_abs_sum = 0.0;
  double ma_abs_sum = 0.0;
};

void build_polys(const ArimaOrder& o, std::span<const double> params,
                 Polys& out) {
  out.ar.clear();
  out.ma.clear();
  out.max_ar_lag = 0;
  out.ar_abs_sum = 0.0;
  out.ma_abs_sum = 0.0;
  std::size_t idx = 0;
  const std::span<const double> phi = params.subspan(idx, o.p);
  idx += o.p;
  const std::span<const double> theta = params.subspan(idx, o.q);
  idx += o.q;
  const std::span<const double> sphi = params.subspan(idx, o.sp);
  idx += o.sp;
  const std::span<const double> stheta = params.subspan(idx, o.sq);
  idx += o.sq;
  out.mean = o.needs_mean() ? params[idx] : 0.0;

  const std::size_t s = o.season;
  // (1 - sum phi_i B^i)(1 - sum PHI_I B^{sI}) on the AR side expands to
  // coefficients +phi_i at lag i, +PHI_I at lag sI, -phi_i*PHI_I at i+sI.
  for (std::size_t i = 0; i < o.p; ++i) out.ar.emplace_back(i + 1, phi[i]);
  for (std::size_t I = 0; I < o.sp; ++I) {
    out.ar.emplace_back(s * (I + 1), sphi[I]);
    for (std::size_t i = 0; i < o.p; ++i) {
      out.ar.emplace_back(s * (I + 1) + i + 1, -phi[i] * sphi[I]);
    }
  }
  // (1 + sum theta_j B^j)(1 + sum THETA_J B^{sJ}) on the MA side:
  // +theta_j at j, +THETA_J at sJ, +theta_j*THETA_J at j+sJ.
  for (std::size_t j = 0; j < o.q; ++j) out.ma.emplace_back(j + 1, theta[j]);
  for (std::size_t J = 0; J < o.sq; ++J) {
    out.ma.emplace_back(s * (J + 1), stheta[J]);
    for (std::size_t j = 0; j < o.q; ++j) {
      out.ma.emplace_back(s * (J + 1) + j + 1, theta[j] * stheta[J]);
    }
  }
  for (const auto& [lag, a] : out.ar) {
    out.max_ar_lag = std::max(out.max_ar_lag, lag);
    out.ar_abs_sum += std::fabs(a);
  }
  for (const auto& [lag, b] : out.ma) {
    (void)lag;
    out.ma_abs_sum += std::fabs(b);
  }
}

/// Scores up to kern::kCssLanes parameter vectors of one order on one
/// differenced series in a single kern::css_lanes pass. Its buffers persist
/// across calls, so the Nelder-Mead objective allocates nothing once warm.
class CssBatch {
 public:
  CssBatch(const ArimaOrder& order, std::span<const double> w)
      : order_(order), w_(w), work_(w.size() * kern::kCssLanes) {}

  /// The polynomials of params[l] from the last run(), l < params.size().
  const Polys& polys(std::size_t l) const { return polys_[l]; }

  /// css[l] = the CSS of w under params[l] over t >= max_ar_lag, for each
  /// of the 1..kCssLanes vectors in params; spare lanes repeat params[0].
  /// `resid`, when non-null, receives params[0]'s residuals (w.size()).
  void run(std::span<const std::span<const double>> params, double* css,
           double* resid) {
    constexpr std::size_t kL = kern::kCssLanes;
    const std::size_t m = params.size();
    for (std::size_t l = 0; l < m; ++l) {
      build_polys(order_, params[l], polys_[l]);
    }
    const auto lane = [&](std::size_t l) -> const Polys& {
      return polys_[l < m ? l : 0];
    };
    // Lags are the order's, so lane 0's; coefficients go lane-interleaved.
    const auto interleave = [&](Terms Polys::*side,
                                std::vector<std::size_t>& lag,
                                std::vector<double>& coef) -> kern::LagTerms {
      const Terms& terms = polys_[0].*side;
      lag.resize(terms.size());
      coef.resize(terms.size() * kL);
      for (std::size_t k = 0; k < terms.size(); ++k) {
        lag[k] = terms[k].first;
        for (std::size_t l = 0; l < kL; ++l) {
          coef[k * kL + l] = (lane(l).*side)[k].second;
        }
      }
      return {lag.data(), coef.data(), lag.size()};
    };
    double mean[kL];
    for (std::size_t l = 0; l < kL; ++l) mean[l] = lane(l).mean;
    double lane_css[kL];
    kern::css_lanes(w_.data(), w_.size(), mean,
                    interleave(&Polys::ar, ar_lag_, ar_coef_),
                    interleave(&Polys::ma, ma_lag_, ma_coef_),
                    polys_[0].max_ar_lag, work_.data(), lane_css, resid);
    std::copy_n(lane_css, m, css);
  }

 private:
  ArimaOrder order_;
  std::span<const double> w_;
  Polys polys_[kern::kCssLanes];
  std::vector<std::size_t> ar_lag_, ma_lag_;
  std::vector<double> ar_coef_, ma_coef_;
  std::vector<double> work_;
};

/// Differences x in place, seasonal differences first, as the chain does:
/// level by level, x[t] becomes x[t + lag] - x[t]. Calls on_level(x, i)
/// with the undifferenced level i before each difference.
template <typename OnLevel>
void difference_chain(const ArimaOrder& o, std::vector<double>& x,
                      OnLevel&& on_level) {
  std::size_t level = 0;
  const auto difference = [&](std::size_t lag) {
    on_level(x, level++);
    for (std::size_t t = 0; t + lag < x.size(); ++t) x[t] = x[t + lag] - x[t];
    x.resize(x.size() - lag);
  };
  for (std::size_t i = 0; i < o.sd; ++i) difference(o.season);
  for (std::size_t i = 0; i < o.d; ++i) difference(1);
}

}  // namespace

std::string ArimaOrder::to_string() const {
  // Built with += rather than chained operator+: GCC 12's -Wrestrict
  // false-positives on the temporary chain under -O2, breaking -Werror.
  std::string out;
  out += '(';
  out += std::to_string(p);
  out += ',';
  out += std::to_string(d);
  out += ',';
  out += std::to_string(q);
  out += ')';
  if (has_seasonal()) {
    out += '(';
    out += std::to_string(sp);
    out += ',';
    out += std::to_string(sd);
    out += ',';
    out += std::to_string(sq);
    out += ")[";
    out += std::to_string(season);
    out += ']';
  }
  return out;
}

ArimaForecaster::ArimaForecaster(const ArimaOrder& order,
                                 const ArimaOptions& options)
    : order_(order), options_(options) {
  RESMON_REQUIRE(order.d <= 2, "regular differencing d must be <= 2");
  RESMON_REQUIRE(order.sd <= 1, "seasonal differencing D must be <= 1");
  if (order.sp > 0 || order.sd > 0 || order.sq > 0) {
    RESMON_REQUIRE(order.season > 1,
                   "seasonal terms require a season length > 1");
  }
}

void ArimaForecaster::fit(std::span<const double> series) {
  const std::size_t seasonal_loss = order_.sd * order_.season;
  const std::size_t loss = order_.d + seasonal_loss;

  // Trial polynomials with unit coefficients give the deepest lag the model
  // will ever reach; the differenced series must comfortably cover it.
  std::vector<double> ones(order_.num_params(), 0.1);
  Polys trial;
  build_polys(order_, ones, trial);
  const std::size_t min_len =
      std::max<std::size_t>(trial.max_ar_lag + 8, 16);
  if (series.size() < loss + min_len) {
    throw NumericalError("ARIMA" + order_.to_string() +
                         ": series too short (" +
                         std::to_string(series.size()) + " points)");
  }

  // Each chain level and the residuals keep their newest values, as deep
  // as update() and forecast() read: the deepest AR lag, MA lag or season
  // (at least 1, as a regular difference reads two values), plus the
  // newest. The lags depend on the order alone, so the trial polynomials
  // give them. The stationary series w is the history itself when nothing
  // is differenced, else the differences of one copy.
  std::size_t depth =
      std::max<std::size_t>({trial.max_ar_lag, order_.season, 1});
  for (const auto& [lag, b] : trial.ma) depth = std::max(depth, lag);
  ++depth;
  chain_.resize(1 + order_.sd + order_.d);
  std::vector<double> diffed;
  std::span<const double> w = series;
  if (order_.sd + order_.d > 0) {
    diffed.assign(series.begin(), series.end());
    difference_chain(order_, diffed,
                     [&](std::span<const double> level, std::size_t i) {
                       chain_[i].assign(depth, level);
                     });
    w = diffed;
  }
  chain_.back().assign(depth, w);

  params_.assign(order_.num_params(), 0.1);
  if (order_.needs_mean()) {
    double m = 0.0;
    for (double v : w) m += v;
    params_.back() = m / static_cast<double>(w.size());
  }

  CssBatch batch(order_, w);
  if (!params_.empty()) {
    const double n = static_cast<double>(w.size());
    const optim::BatchObjective objective =
        [&](std::span<const std::span<const double>> candidates,
            std::span<double> out) {
          batch.run(candidates, out.data(), nullptr);
          for (std::size_t i = 0; i < candidates.size(); ++i) {
            // Soft stationarity/invertibility penalty: keep the combined
            // lag polynomials inside the (conservative) |coeffs| sum < 1
            // region.
            const Polys& polys = batch.polys(i);
            const double excess_ar = std::max(0.0, polys.ar_abs_sum - 0.999);
            const double excess_ma = std::max(0.0, polys.ma_abs_sum - 0.999);
            out[i] = out[i] * (1.0 + 50.0 * (excess_ar + excess_ma)) +
                     n * (excess_ar + excess_ma);
          }
        };
    const optim::OptimResult opt =
        optim::nelder_mead(objective, params_, options_.optimizer);
    params_ = opt.x;
  }

  // One more pass at the optimum keeps its residuals, CSS and polynomials.
  const std::span<const double> optimum[] = {params_};
  std::vector<double> residuals(w.size());
  batch.run(optimum, &css_, residuals.data());
  residuals_.assign(depth, residuals);
  const Polys& polys = batch.polys(0);
  ar_lags_ = polys.ar;
  ma_lags_ = polys.ma;
  mean_ = polys.mean;
  max_ar_lag_ = polys.max_ar_lag;
  n_effective_ = w.size() > max_ar_lag_ ? w.size() - max_ar_lag_ : 0;
  fitted_ = true;
}

void ArimaForecaster::Ring::assign(std::size_t depth,
                                   std::span<const double> series) {
  buf_.assign(std::bit_ceil(std::max<std::size_t>(depth, 1)), 0.0);
  mask_ = buf_.size() - 1;
  size_ = series.size() - std::min(buf_.size(), series.size());
  while (size_ < series.size()) push(series[size_]);
}

void ArimaForecaster::update(double value) {
  if (!fitted_) throw InvalidState("ARIMA: update before fit");
  chain_[0].push(value);
  std::size_t level = 1;
  for (std::size_t i = 0; i < order_.sd; ++i, ++level) {
    const Ring& prev = chain_[level - 1];
    chain_[level].push(prev.back() - prev[prev.size() - 1 - order_.season]);
  }
  for (std::size_t i = 0; i < order_.d; ++i, ++level) {
    const Ring& prev = chain_[level - 1];
    chain_[level].push(prev.back() - prev[prev.size() - 2]);
  }

  // Extend the residual recursion by one step.
  const Ring& w = chain_.back();
  const std::size_t t = w.size() - 1;
  double acc = w[t] - mean_;
  for (const auto& [lag, a] : ar_lags_) {
    if (t >= lag) acc -= a * (w[t - lag] - mean_);
  }
  for (const auto& [lag, b] : ma_lags_) {
    if (t >= lag) acc -= b * residuals_[t - lag];
  }
  residuals_.push(acc);
  if (t >= max_ar_lag_) {
    css_ += acc * acc;
    ++n_effective_;
  }
}

double ArimaForecaster::forecast(std::size_t h) const {
  RESMON_REQUIRE(h >= 1, "forecast horizon must be >= 1");
  if (!fitted_) throw InvalidState("ARIMA: forecast before fit");

  const Ring& w = chain_.back();
  const std::size_t n = w.size();

  // Forecast the stationary (differenced, centered) series: future shocks
  // are zero, past residuals come from the fitted recursion. fc is the
  // caller's own stack buffer up to kStackHorizon, so forecast() writes no
  // shared state (concurrent readers are safe) and the per-step forecast(1)
  // of the pipeline's residual tracking stays allocation-free.
  constexpr std::size_t kStackHorizon = 64;
  std::array<double, kStackHorizon> stack_fc{};
  std::vector<double> heap_fc(h > kStackHorizon ? h : 0);
  const std::span<double> fc(
      h > kStackHorizon ? heap_fc.data() : stack_fc.data(), h);
  auto wc_at = [&](long long idx) -> double {
    // idx relative to w; negative = before data start (treated as mean).
    if (idx < 0) return 0.0;
    if (idx < static_cast<long long>(n)) return w[idx] - mean_;
    return fc[static_cast<std::size_t>(idx) - n];
  };
  auto e_at = [&](long long idx) -> double {
    if (idx < 0 || idx >= static_cast<long long>(n)) return 0.0;
    return residuals_[idx];
  };
  for (std::size_t tau = 0; tau < h; ++tau) {
    const long long t = static_cast<long long>(n + tau);
    double acc = 0.0;
    for (const auto& [lag, a] : ar_lags_) {
      acc += a * wc_at(t - static_cast<long long>(lag));
    }
    for (const auto& [lag, b] : ma_lags_) {
      acc += b * e_at(t - static_cast<long long>(lag));
    }
    fc[tau] = acc;
  }
  // Undo centering.
  for (double& v : fc) v += mean_;

  // Invert the differencing chain, deepest level first (regular diffs were
  // applied last, so they are inverted first).
  std::size_t level = chain_.size() - 1;
  for (std::size_t i = 0; i < order_.d; ++i, --level) {
    const Ring& base = chain_[level - 1];
    double prev = base.back();
    for (std::size_t tau = 0; tau < h; ++tau) {
      fc[tau] = prev + fc[tau];
      prev = fc[tau];
    }
  }
  for (std::size_t i = 0; i < order_.sd; ++i, --level) {
    const Ring& base = chain_[level - 1];
    const std::size_t s = order_.season;
    for (std::size_t tau = 0; tau < h; ++tau) {
      // x_{n-1+tau+1} = x_{n-1+tau+1-s} + u_fc[tau]
      const long long past = static_cast<long long>(base.size()) +
                             static_cast<long long>(tau) -
                             static_cast<long long>(s);
      const double anchor = past < static_cast<long long>(base.size())
                                ? base[past]
                                : fc[static_cast<std::size_t>(past) -
                                     base.size()];
      fc[tau] = anchor + fc[tau];
    }
  }
  return fc[h - 1];
}

double ArimaForecaster::forecast_stddev(std::size_t h) const {
  RESMON_REQUIRE(h >= 1, "forecast horizon must be >= 1");
  if (!fitted_) throw InvalidState("ARIMA: forecast_stddev before fit");

  // Full autoregressive polynomial including the differencing operators:
  // A(B) = (1 - sum a_lag B^lag) (1-B)^d (1-B^s)^D = 1 - sum phi_j B^j.
  // Represent polynomials as dense coefficient vectors in B.
  auto poly_mul = [](const std::vector<double>& p,
                     const std::vector<double>& q) {
    std::vector<double> out(p.size() + q.size() - 1, 0.0);
    for (std::size_t i = 0; i < p.size(); ++i) {
      for (std::size_t j = 0; j < q.size(); ++j) out[i + j] += p[i] * q[j];
    }
    return out;
  };
  std::vector<double> a_poly{1.0};
  {
    std::size_t max_lag = 0;
    for (const auto& [lag, coeff] : ar_lags_) {
      (void)coeff;
      max_lag = std::max(max_lag, lag);
    }
    std::vector<double> stationary(max_lag + 1, 0.0);
    stationary[0] = 1.0;
    for (const auto& [lag, coeff] : ar_lags_) stationary[lag] -= coeff;
    a_poly = stationary;
  }
  for (std::size_t i = 0; i < order_.d; ++i) {
    a_poly = poly_mul(a_poly, {1.0, -1.0});
  }
  for (std::size_t i = 0; i < order_.sd; ++i) {
    std::vector<double> seasonal(order_.season + 1, 0.0);
    seasonal[0] = 1.0;
    seasonal[order_.season] = -1.0;
    a_poly = poly_mul(a_poly, seasonal);
  }
  // phi_full[j] (j >= 1) with x_t = sum phi_full_j x_{t-j} + MA + e_t.
  std::vector<double> phi_full(a_poly.size(), 0.0);
  for (std::size_t j = 1; j < a_poly.size(); ++j) phi_full[j] = -a_poly[j];

  // MA coefficients b_j (dense).
  std::vector<double> b;
  for (const auto& [lag, coeff] : ma_lags_) {
    if (lag >= b.size()) b.resize(lag + 1, 0.0);
    b[lag] = coeff;
  }

  // psi recursion: psi_0 = 1; psi_j = b_j + sum_i phi_full_i psi_{j-i}.
  std::vector<double> psi(h, 0.0);
  psi[0] = 1.0;
  double var_sum = 1.0;
  for (std::size_t j = 1; j < h; ++j) {
    double s = j < b.size() ? b[j] : 0.0;
    for (std::size_t i = 1; i < phi_full.size() && i <= j; ++i) {
      s += phi_full[i] * psi[j - i];
    }
    psi[j] = s;
    var_sum += s * s;
  }
  return std::sqrt(sigma2() * var_sum);
}

ArimaForecaster::Interval ArimaForecaster::forecast_interval(
    std::size_t h, double confidence) const {
  RESMON_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 "confidence must be in (0,1)");
  const double point = forecast(h);
  const double z = stats::normal_quantile(0.5 + confidence / 2.0);
  const double se = forecast_stddev(h);
  return {point - z * se, point, point + z * se};
}

double ArimaForecaster::css() const {
  if (!fitted_) throw InvalidState("ARIMA: css before fit");
  return css_;
}

double ArimaForecaster::sigma2() const {
  if (!fitted_) throw InvalidState("ARIMA: sigma2 before fit");
  if (n_effective_ == 0) return 0.0;
  return css_ / static_cast<double>(n_effective_);
}

double ArimaForecaster::aicc() const {
  if (!fitted_) throw InvalidState("ARIMA: aicc before fit");
  const double n = static_cast<double>(n_effective_);
  const double k = static_cast<double>(order_.num_params()) + 1.0;
  if (n <= k + 1.0) return std::numeric_limits<double>::infinity();
  const double s2 = std::max(sigma2(), 1e-12);
  const double log_l =
      -0.5 * n * (std::log(2.0 * std::numbers::pi * s2) + 1.0);
  const double aic = -2.0 * log_l + 2.0 * k;
  return aic + 2.0 * k * (k + 1.0) / (n - k - 1.0);
}

ArimaGrid ArimaGrid::paper_grid(std::size_t season) {
  ArimaGrid g;
  g.max_p = 5;
  g.max_d = 2;
  g.max_q = 5;
  g.max_sp = 2;
  g.max_sd = 1;
  g.max_sq = 2;
  g.season = season;
  return g;
}

AutoArimaForecaster::AutoArimaForecaster(const ArimaGrid& grid,
                                         const ArimaOptions& options)
    : grid_(grid), options_(options) {}

void AutoArimaForecaster::fit(std::span<const double> series) {
  candidates_.clear();
  std::unique_ptr<ArimaForecaster> best;
  double best_aicc = std::numeric_limits<double>::infinity();
  std::size_t best_params = 0;

  const bool seasonal = grid_.season > 1;
  const std::size_t sp_hi = seasonal ? grid_.max_sp : 0;
  const std::size_t sd_hi = seasonal ? grid_.max_sd : 0;
  const std::size_t sq_hi = seasonal ? grid_.max_sq : 0;

  for (std::size_t p = 0; p <= grid_.max_p; ++p) {
    for (std::size_t d = 0; d <= grid_.max_d; ++d) {
      for (std::size_t q = 0; q <= grid_.max_q; ++q) {
        for (std::size_t sp = 0; sp <= sp_hi; ++sp) {
          for (std::size_t sd = 0; sd <= sd_hi; ++sd) {
            for (std::size_t sq = 0; sq <= sq_hi; ++sq) {
              ArimaOrder order{.p = p, .d = d, .q = q, .sp = sp, .sd = sd,
                               .sq = sq, .season = grid_.season};
              if (order.num_params() == 0 && d == 0 && sd == 0) {
                continue;  // empty model: no dynamics, no mean, no trend
              }
              auto model =
                  std::make_unique<ArimaForecaster>(order, options_);
              double aicc;
              try {
                model->fit(series);
                aicc = model->aicc();
              } catch (const NumericalError&) {
                continue;  // series too short for this order
              }
              candidates_.push_back({order, aicc});
              const std::size_t np = order.num_params();
              if (aicc < best_aicc - 1e-9 ||
                  (std::fabs(aicc - best_aicc) <= 1e-9 &&
                   np < best_params)) {
                best_aicc = aicc;
                best_params = np;
                best = std::move(model);
              }
            }
          }
        }
      }
    }
  }
  if (best == nullptr) {
    throw NumericalError(
        "AutoArima: no candidate order could be fitted (series too short?)");
  }
  model_ = std::move(best);
}

void AutoArimaForecaster::update(double value) {
  if (model_ == nullptr) throw InvalidState("AutoArima: update before fit");
  model_->update(value);
}

double AutoArimaForecaster::forecast(std::size_t h) const {
  if (model_ == nullptr) throw InvalidState("AutoArima: forecast before fit");
  return model_->forecast(h);
}

std::string AutoArimaForecaster::name() const {
  return model_ == nullptr ? "AutoARIMA" : "Auto" + model_->name();
}

const ArimaForecaster& AutoArimaForecaster::selected() const {
  if (model_ == nullptr) throw InvalidState("AutoArima: not fitted");
  return *model_;
}

}  // namespace resmon::forecast
