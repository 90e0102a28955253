#include "forecast/lstm.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace resmon::forecast {

namespace {

/// Global gradient-norm clip applied before every Adam step.
constexpr double kGradClip = 1.0;

double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

/// Per-window activation cache for backpropagation through time.
struct LstmForecaster::Cache {
  // Indexed [layer][t][unit].
  // Gates after nonlinearity: i, f, g, o; cell state c and tanh(c); h.
  std::vector<std::vector<std::vector<double>>> gi, gf, gg, go, c, tc, h;
  std::vector<double> input;  // normalized window
  std::size_t head = 0;       // head used for the forward() return value
  std::vector<double> head_pre;         // pre-ReLU output of every head
  std::vector<double> head_prediction;  // ReLU output of every head
};

LstmForecaster::LstmForecaster(const LstmOptions& options, std::uint64_t seed)
    : options_(options), rng_(seed) {
  RESMON_REQUIRE(options.hidden_size >= 1, "LSTM hidden size must be >= 1");
  RESMON_REQUIRE(options.window >= 2, "LSTM window must be >= 2");
  RESMON_REQUIRE(options.epochs >= 1, "LSTM needs at least one epoch");
  RESMON_REQUIRE(options.stride >= 1, "LSTM stride must be >= 1");
  RESMON_REQUIRE(!options.horizons.empty() && options.horizons[0] == 1,
                 "LSTM horizon buckets must start at 1");
  for (std::size_t i = 1; i < options.horizons.size(); ++i) {
    RESMON_REQUIRE(options.horizons[i] > options.horizons[i - 1],
                   "LSTM horizon buckets must be strictly increasing");
  }
  init_params();
}

void LstmForecaster::init_params() {
  const std::size_t h = options_.hidden_size;
  std::size_t offset = 0;
  for (std::size_t l = 0; l < 2; ++l) {
    const std::size_t input = l == 0 ? 1 : h;
    layer_[l].input = input;
    layer_[l].wx = offset;
    offset += 4 * h * input;
    layer_[l].wh = offset;
    offset += 4 * h * h;
    layer_[l].b = offset;
    offset += 4 * h;
  }
  head_w_.clear();
  head_b_.clear();
  for (std::size_t k = 0; k < options_.horizons.size(); ++k) {
    head_w_.push_back(offset);
    offset += h;
    head_b_.push_back(offset);
    offset += 1;
  }

  params_.assign(offset, 0.0);
  grad_.assign(offset, 0.0);
  const double r = 1.0 / std::sqrt(static_cast<double>(h));
  for (double& p : params_) p = rng_.uniform(-r, r);
  // Forget-gate bias starts positive so early training retains memory.
  for (std::size_t l = 0; l < 2; ++l) {
    for (std::size_t u = 0; u < h; ++u) {
      params_[layer_[l].b + h + u] = 1.0;
    }
  }
  for (const std::size_t b : head_b_) {
    params_[b] = 0.5;  // mid-range output before training
  }
}

double LstmForecaster::normalize(double v) const {
  return (v - lo_) / (hi_ - lo_);
}

double LstmForecaster::denormalize(double v) const {
  return lo_ + v * (hi_ - lo_);
}

double LstmForecaster::forward(std::span<const double> window,
                               std::size_t head, Cache* cache) const {
  const std::size_t h = options_.hidden_size;
  const std::size_t steps = window.size();

  if (cache != nullptr) {
    cache->input.assign(window.begin(), window.end());
    cache->head = head;
    for (auto* field :
         {&cache->gi, &cache->gf, &cache->gg, &cache->go, &cache->c,
          &cache->tc, &cache->h}) {
      field->assign(2, std::vector<std::vector<double>>(
                           steps, std::vector<double>(h)));
    }
  }

  std::vector<double> h_state[2] = {std::vector<double>(h, 0.0),
                                    std::vector<double>(h, 0.0)};
  std::vector<double> c_state[2] = {std::vector<double>(h, 0.0),
                                    std::vector<double>(h, 0.0)};
  std::vector<double> h_new_vec(h, 0.0);
  std::vector<double> layer_in;

  for (std::size_t t = 0; t < steps; ++t) {
    layer_in.assign(1, window[t]);
    for (std::size_t l = 0; l < 2; ++l) {
      const LayerView& lv = layer_[l];
      const std::size_t in_dim = lv.input;
      for (std::size_t u = 0; u < h; ++u) {
        double pre[4];
        for (std::size_t g = 0; g < 4; ++g) {
          double acc = params_[lv.b + g * h + u];
          const std::size_t wx_row = lv.wx + (g * h + u) * in_dim;
          for (std::size_t i = 0; i < in_dim; ++i) {
            acc += params_[wx_row + i] * layer_in[i];
          }
          const std::size_t wh_row = lv.wh + (g * h + u) * h;
          for (std::size_t i = 0; i < h; ++i) {
            acc += params_[wh_row + i] * h_state[l][i];
          }
          pre[g] = acc;
        }
        const double gi = sigmoid(pre[0]);
        const double gf = sigmoid(pre[1]);
        const double gg = std::tanh(pre[2]);
        const double go = sigmoid(pre[3]);
        const double c_new = gf * c_state[l][u] + gi * gg;
        const double tc = std::tanh(c_new);
        const double h_new = go * tc;
        c_state[l][u] = c_new;  // c[u] is read only by unit u; safe in place
        h_new_vec[u] = h_new;   // h is read across units; update after loop
        if (cache != nullptr) {
          cache->gi[l][t][u] = gi;
          cache->gf[l][t][u] = gf;
          cache->gg[l][t][u] = gg;
          cache->go[l][t][u] = go;
          cache->c[l][t][u] = c_new;
          cache->tc[l][t][u] = tc;
          cache->h[l][t][u] = h_new;
        }
      }
      h_state[l] = h_new_vec;
      layer_in = h_state[l];
    }
  }

  // Evaluate every horizon head from the shared encoder state (cheap: one
  // dot product each); the requested head's output is returned.
  const std::size_t num_heads = head_w_.size();
  double out = 0.0;
  if (cache != nullptr) {
    cache->head_pre.assign(num_heads, 0.0);
    cache->head_prediction.assign(num_heads, 0.0);
  }
  for (std::size_t k = 0; k < num_heads; ++k) {
    if (cache == nullptr && k != head) continue;
    double pre = params_[head_b_[k]];
    for (std::size_t u = 0; u < h; ++u) {
      pre += params_[head_w_[k] + u] * h_state[1][u];
    }
    const double value = std::max(pre, 0.0);  // ReLU head
    if (cache != nullptr) {
      cache->head_pre[k] = pre;
      cache->head_prediction[k] = value;
    }
    if (k == head) out = value;
  }
  return out;
}

void LstmForecaster::backward(const Cache& cache,
                              std::span<const double> d_predictions) {
  const std::size_t h = options_.hidden_size;
  const std::size_t steps = cache.input.size();

  // Through the ReLU + dense heads; all head gradients sum into the shared
  // encoder state, so one BPTT pass trains every horizon at once.
  std::vector<double> dh_next[2] = {std::vector<double>(h, 0.0),
                                    std::vector<double>(h, 0.0)};
  std::vector<double> dc_next[2] = {std::vector<double>(h, 0.0),
                                    std::vector<double>(h, 0.0)};
  for (std::size_t k = 0; k < head_w_.size(); ++k) {
    const double d_pre =
        cache.head_pre[k] > 0.0 ? d_predictions[k] : 0.0;
    if (d_pre == 0.0) continue;
    grad_[head_b_[k]] += d_pre;
    for (std::size_t u = 0; u < h; ++u) {
      grad_[head_w_[k] + u] += d_pre * cache.h[1][steps - 1][u];
      dh_next[1][u] += d_pre * params_[head_w_[k] + u];
    }
  }

  // BPTT, top layer first within each time step.
  std::vector<double> d_layer_in(h, 0.0);  // gradient wrt layer-1's input
  for (std::size_t t = steps; t-- > 0;) {
    std::fill(d_layer_in.begin(), d_layer_in.end(), 0.0);
    for (std::size_t l = 2; l-- > 0;) {
      const LayerView& lv = layer_[l];
      const std::size_t in_dim = lv.input;
      std::vector<double> dh_prev(h, 0.0);
      std::vector<double> dc_prev(h, 0.0);
      for (std::size_t u = 0; u < h; ++u) {
        const double dh = dh_next[l][u];
        const double go = cache.go[l][t][u];
        const double tc = cache.tc[l][t][u];
        const double gi = cache.gi[l][t][u];
        const double gf = cache.gf[l][t][u];
        const double gg = cache.gg[l][t][u];
        const double c_prev = t > 0 ? cache.c[l][t - 1][u] : 0.0;

        const double dc = dc_next[l][u] + dh * go * (1.0 - tc * tc);
        const double d_go = dh * tc * go * (1.0 - go);
        const double d_gi = dc * gg * gi * (1.0 - gi);
        const double d_gf = dc * c_prev * gf * (1.0 - gf);
        const double d_gg = dc * gi * (1.0 - gg * gg);
        dc_prev[u] = dc * gf;

        const double d_pre_gates[4] = {d_gi, d_gf, d_gg, d_go};
        for (std::size_t g = 0; g < 4; ++g) {
          const double dpg = d_pre_gates[g];
          if (dpg == 0.0) continue;
          grad_[lv.b + g * h + u] += dpg;
          const std::size_t wx_row = lv.wx + (g * h + u) * in_dim;
          const std::size_t wh_row = lv.wh + (g * h + u) * h;
          for (std::size_t i = 0; i < in_dim; ++i) {
            const double x_in =
                l == 0 ? cache.input[t] : cache.h[0][t][i];
            grad_[wx_row + i] += dpg * x_in;
            if (l == 1) d_layer_in[i] += dpg * params_[wx_row + i];
          }
          if (t > 0) {
            for (std::size_t i = 0; i < h; ++i) {
              grad_[wh_row + i] += dpg * cache.h[l][t - 1][i];
              dh_prev[i] += dpg * params_[wh_row + i];
            }
          }
        }
      }
      dh_next[l] = std::move(dh_prev);
      dc_next[l] = std::move(dc_prev);
      if (l == 1) {
        // Gradient flowing into layer 0's output at this same time step.
        for (std::size_t i = 0; i < h; ++i) dh_next[0][i] += d_layer_in[i];
      }
    }
  }
}

double LstmForecaster::gradient_check(std::span<const double> window,
                                      double target, std::size_t head) {
  RESMON_REQUIRE(head < options_.horizons.size(), "head out of range");
  Cache cache;
  const double pred = forward(window, head, &cache);
  std::fill(grad_.begin(), grad_.end(), 0.0);
  std::vector<double> d_predictions(head_w_.size(), 0.0);
  d_predictions[head] = pred - target;
  backward(cache, d_predictions);

  constexpr double kEps = 1e-6;
  double worst = 0.0;
  for (std::size_t p = 0; p < params_.size(); ++p) {
    const double saved = params_[p];
    params_[p] = saved + kEps;
    const double up = forward(window, head, nullptr);
    params_[p] = saved - kEps;
    const double down = forward(window, head, nullptr);
    params_[p] = saved;
    const double loss_up = 0.5 * (up - target) * (up - target);
    const double loss_down = 0.5 * (down - target) * (down - target);
    const double numeric = (loss_up - loss_down) / (2.0 * kEps);
    worst = std::max(worst, std::fabs(numeric - grad_[p]));
  }
  return worst;
}

void LstmForecaster::fit(std::span<const double> series) {
  RESMON_REQUIRE(series.size() > options_.window + 1,
                 "LSTM: series shorter than training window");
  recent_.assign(series.end() - options_.window, series.end());
  recent_oldest_ = 0;

  lo_ = *std::min_element(series.begin(), series.end());
  hi_ = *std::max_element(series.begin(), series.end());
  if (hi_ - lo_ < 1e-9) hi_ = lo_ + 1.0;  // constant series: avoid div by 0

  std::vector<double> norm(series.size());
  for (std::size_t i = 0; i < norm.size(); ++i) {
    norm[i] = normalize(series[i]);
  }

  // Training examples: window [t, t+W) -> target at t+W-1+h for a horizon
  // bucket h. Every start must support at least the h=1 bucket.
  std::vector<std::size_t> starts;
  for (std::size_t t = 0; t + options_.window < norm.size();
       t += options_.stride) {
    starts.push_back(t);
  }
  RESMON_REQUIRE(!starts.empty(), "LSTM: no training windows");

  init_params();  // re-randomize so refits do not depend on stale optima
  optim::Adam adam(params_.size(), {.learning_rate = options_.learning_rate});
  Cache cache;

  const std::size_t num_heads = options_.horizons.size();
  std::vector<double> d_predictions(num_heads, 0.0);
  for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_.shuffle(starts);
    double loss_sum = 0.0;
    std::size_t loss_terms = 0;
    for (const std::size_t start : starts) {
      const std::span<const double> window(norm.data() + start,
                                           options_.window);
      // One forward pass evaluates every horizon head; each head with a
      // valid target contributes its error, and a single BPTT pass trains
      // all of them through the shared encoder.
      forward(window, 0, &cache);
      std::size_t valid = 0;
      for (std::size_t k = 0; k < num_heads; ++k) {
        const std::size_t target_index =
            start + options_.window - 1 + options_.horizons[k];
        if (target_index >= norm.size()) {
          d_predictions[k] = 0.0;
          continue;
        }
        const double err = cache.head_prediction[k] - norm[target_index];
        d_predictions[k] = err;
        loss_sum += err * err;
        ++valid;
      }
      if (valid == 0) continue;
      loss_terms += valid;
      // Normalize so the gradient scale matches single-head training.
      for (double& d : d_predictions) d /= static_cast<double>(valid);

      std::fill(grad_.begin(), grad_.end(), 0.0);
      backward(cache, d_predictions);
      double norm2 = 0.0;
      for (const double g : grad_) norm2 += g * g;
      const double gnorm = std::sqrt(norm2);
      if (gnorm > kGradClip) {
        const double scale = kGradClip / gnorm;
        for (double& g : grad_) g *= scale;
      }
      adam.step(params_, grad_);
    }
    final_loss_ = loss_terms > 0
                      ? loss_sum / static_cast<double>(loss_terms)
                      : 0.0;
  }
  fitted_ = true;
}

void LstmForecaster::update(double value) {
  if (!fitted_) throw InvalidState("LSTM: update before fit");
  recent_[recent_oldest_] = value;
  recent_oldest_ = (recent_oldest_ + 1) % recent_.size();
}

double LstmForecaster::predict_head(std::size_t head) const {
  const std::size_t w = recent_.size();
  std::vector<double> window(w);
  for (std::size_t i = 0; i < w; ++i) {
    window[i] = normalize(recent_[(recent_oldest_ + i) % w]);
  }
  return forward(window, head, nullptr);
}

double LstmForecaster::forecast(std::size_t h) const {
  RESMON_REQUIRE(h >= 1, "forecast horizon must be >= 1");
  if (!fitted_) throw InvalidState("LSTM: forecast before fit");

  const std::vector<std::size_t>& hs = options_.horizons;
  // Exact bucket, or hold the last bucket beyond the trained range.
  const auto it = std::lower_bound(hs.begin(), hs.end(), h);
  if (it == hs.end()) {
    return denormalize(predict_head(hs.size() - 1));
  }
  const std::size_t hi_idx = static_cast<std::size_t>(it - hs.begin());
  if (hs[hi_idx] == h || hi_idx == 0) {
    return denormalize(predict_head(hi_idx));
  }
  // Linear interpolation between the bracketing horizon heads.
  const std::size_t lo_idx = hi_idx - 1;
  const double frac = static_cast<double>(h - hs[lo_idx]) /
                      static_cast<double>(hs[hi_idx] - hs[lo_idx]);
  const double lo_pred = predict_head(lo_idx);
  const double hi_pred = predict_head(hi_idx);
  return denormalize(lo_pred + frac * (hi_pred - lo_pred));
}

}  // namespace resmon::forecast
