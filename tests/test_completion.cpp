#include "completion/matrix_completion.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace resmon::completion {
namespace {

/// Exact rank-2 matrix plus a mask hiding `hidden_fraction` of entries.
struct LowRankCase {
  Matrix truth;
  Matrix observed;
  std::vector<bool> mask;
};

LowRankCase make_low_rank(std::size_t rows, std::size_t cols,
                          double hidden_fraction, std::uint64_t seed) {
  Rng rng(seed);
  Matrix u(rows, 2);
  Matrix v(cols, 2);
  for (std::size_t i = 0; i < rows; ++i) {
    u(i, 0) = rng.uniform(0.2, 1.0);
    u(i, 1) = rng.uniform(-0.5, 0.5);
  }
  for (std::size_t j = 0; j < cols; ++j) {
    v(j, 0) = rng.uniform(0.2, 1.0);
    v(j, 1) = rng.uniform(-0.5, 0.5);
  }
  LowRankCase c;
  c.truth = u * v.transposed();
  c.observed = Matrix(rows, cols);
  c.mask.assign(rows * cols, false);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (!rng.bernoulli(hidden_fraction)) {
        c.mask[i * cols + j] = true;
        c.observed(i, j) = c.truth(i, j);
      }
    }
  }
  return c;
}

double full_rmse(const Matrix& a, const Matrix& b) {
  double se = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double e = a(i, j) - b(i, j);
      se += e * e;
    }
  }
  return std::sqrt(se / static_cast<double>(a.rows() * a.cols()));
}

/// RMSE over the entries `mask` marks observed.
double masked_rmse(const Matrix& a, const Matrix& b,
                   const std::vector<bool>& mask) {
  double se = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (!mask[i * a.cols() + j]) continue;
      const double e = a(i, j) - b(i, j);
      se += e * e;
      ++count;
    }
  }
  return std::sqrt(se / static_cast<double>(count));
}

TEST(Completion, RecoversLowRankMatrixFromHalfTheEntries) {
  const LowRankCase c = make_low_rank(30, 40, 0.5, 1);
  const Matrix rec = complete_matrix(
      c.observed, c.mask, {.rank = 2, .iterations = 30, .ridge = 1e-4});
  EXPECT_LT(full_rmse(c.truth, rec), 0.02);
}

TEST(Completion, HigherRankStillFitsObservedEntries) {
  const LowRankCase c = make_low_rank(20, 25, 0.3, 2);
  const Matrix rec = complete_matrix(
      c.observed, c.mask, {.rank = 5, .iterations = 30, .ridge = 1e-3});
  EXPECT_LT(masked_rmse(c.truth, rec, c.mask), 0.02);
}

TEST(Completion, SparserObservationsDegradeReconstruction) {
  const LowRankCase dense = make_low_rank(25, 30, 0.3, 3);
  const LowRankCase sparse = make_low_rank(25, 30, 0.9, 3);
  const CompletionOptions o{.rank = 2, .iterations = 25, .ridge = 1e-3};
  const double e_dense =
      full_rmse(dense.truth, complete_matrix(dense.observed, dense.mask, o));
  const double e_sparse = full_rmse(
      sparse.truth, complete_matrix(sparse.observed, sparse.mask, o));
  EXPECT_LT(e_dense, e_sparse);
}

TEST(Completion, ValidatesArguments) {
  Matrix m(4, 4);
  std::vector<bool> mask(16, true);
  EXPECT_THROW(complete_matrix(m, std::vector<bool>(3, true)),
               InvalidArgument);
  EXPECT_THROW(complete_matrix(m, mask, {.rank = 0}), InvalidArgument);
  EXPECT_THROW(complete_matrix(m, mask, {.rank = 9}), InvalidArgument);
  EXPECT_THROW(complete_matrix(m, mask, {.iterations = 0}),
               InvalidArgument);
  EXPECT_THROW(complete_matrix(m, mask, {.ridge = 0.0}), InvalidArgument);
  EXPECT_THROW(complete_matrix(Matrix(), {}), InvalidArgument);
}

}  // namespace
}  // namespace resmon::completion
