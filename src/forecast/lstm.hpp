// LSTM forecaster (§VI-A3): two stacked LSTM layers with dense ReLU heads,
// trained by truncated backpropagation through time with Adam.
//
// The implementation is self-contained (no external ML dependency): weights
// live in one flat parameter vector, the forward pass caches activations per
// time step, and the backward pass produces the gradient for Adam. Series
// are min-max normalized to [0,1] before training so the ReLU output heads
// match the non-negative utilization range, as in the paper.
//
// Multi-step strategy: the paper forecasts h steps ahead for h up to 50 but
// does not specify the rollout; iterating a one-step model compounds error,
// so this implementation trains *direct* horizon heads — one small dense
// head per horizon bucket on the shared recurrent encoder — and linearly
// interpolates between bracketing buckets for intermediate h (see
// DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "common/optim.hpp"
#include "common/rng.hpp"
#include "forecast/forecaster.hpp"

namespace resmon::forecast {

struct LstmOptions {
  std::size_t hidden_size = 12;   ///< units per LSTM layer
  std::size_t window = 16;        ///< input window length for training
  std::size_t epochs = 12;        ///< passes over the training windows
  std::size_t stride = 1;         ///< sample every `stride`-th window
  double learning_rate = 1e-2;    ///< Adam step size
  /// Direct-forecast horizon buckets (strictly increasing, must start at
  /// 1). forecast(h) interpolates between the bracketing buckets and holds
  /// the last bucket beyond the end.
  std::vector<std::size_t> horizons{1, 2, 3, 5, 8, 12, 20, 30, 50};
};

class LstmForecaster final : public Forecaster {
 public:
  explicit LstmForecaster(const LstmOptions& options = {},
                          std::uint64_t seed = 0);

  void fit(std::span<const double> series) override;
  void update(double value) override;
  double forecast(std::size_t h) const override;
  bool is_fitted() const override { return fitted_; }
  std::string name() const override { return "LSTM"; }

  /// Mean squared training error of the final epoch (normalized units,
  /// averaged across horizon heads).
  double final_training_loss() const { return final_loss_; }

  std::size_t num_parameters() const { return params_.size(); }

  /// Numerical gradient check (test hook): compares the analytic gradient
  /// of 0.5 * (prediction - target)^2 on one window (using horizon head
  /// `head`) against central finite differences and returns the largest
  /// absolute deviation. Values around 1e-6 or below indicate a correct
  /// backward pass.
  double gradient_check(std::span<const double> window, double target,
                        std::size_t head = 0);

 private:
  // Layout of the flat parameter vector; each LSTM layer stores
  // [W_x (4H x I), W_h (4H x H), b (4H)], gate order (i, f, g, o),
  // followed by one dense head [w (H), b (1)] per horizon bucket.
  struct LayerView {
    std::size_t wx = 0;  ///< offset of W_x
    std::size_t wh = 0;  ///< offset of W_h
    std::size_t b = 0;   ///< offset of bias
    std::size_t input = 0;
  };

  void init_params();
  double normalize(double v) const;
  double denormalize(double v) const;

  /// Forward one window through the encoder and the given horizon head;
  /// returns the prediction. When `cache` is non-null, all per-step
  /// activations are stored for the backward pass.
  struct Cache;
  double forward(std::span<const double> window, std::size_t head,
                 Cache* cache) const;
  /// Backward pass for one window; accumulates into grad_. Takes one
  /// output-error term per horizon head (0 = head not trained this window);
  /// all heads share a single BPTT pass through the encoder.
  void backward(const Cache& cache, std::span<const double> d_predictions);

  /// Prediction of horizon head `head` from the most recent window.
  double predict_head(std::size_t head) const;

  LstmOptions options_;
  Rng rng_;
  bool fitted_ = false;

  std::vector<double> params_;
  std::vector<double> grad_;
  LayerView layer_[2];
  std::vector<std::size_t> head_w_;  ///< dense weight offset per head
  std::vector<std::size_t> head_b_;  ///< dense bias offset per head

  // The newest `window` raw (unnormalized) values, all a prediction
  // reads, in a ring whose oldest value sits at recent_oldest_.
  std::vector<double> recent_;
  std::size_t recent_oldest_ = 0;
  double lo_ = 0.0;             // normalization range from the last fit
  double hi_ = 1.0;
  double final_loss_ = 0.0;
};

}  // namespace resmon::forecast
