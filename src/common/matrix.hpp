// Dense linear algebra used by the clustering, forecasting and Gaussian
// inference modules. Deliberately small: resmon only needs dense real
// matrices up to a few hundred rows (covariance matrices over ~100 monitors,
// ARIMA design matrices, LSTM weight blocks).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace resmon {

/// Dense row-major matrix of doubles with value semantics.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Construct from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Reshape to rows x cols with every element zeroed. Reuses the existing
  /// allocation when capacity suffices — the hot-path scratch objects rely
  /// on this to stay allocation-free at steady state.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
  }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// Matrix-vector product. Requires v.size() == cols().
  std::vector<double> apply(std::span<const double> v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Cholesky factorization A = L * L^T of a symmetric positive-definite
/// matrix. Throws NumericalError if A is not (numerically) SPD.
Matrix cholesky(const Matrix& a);

/// Solve A x = b for symmetric positive-definite A via Cholesky.
std::vector<double> solve_spd(const Matrix& a, std::span<const double> b);

/// Solve A X = B for SPD A, returning X (B may have multiple columns).
Matrix solve_spd(const Matrix& a, const Matrix& b);

// -- small vector helpers (free functions over std::vector<double>) ---------

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);           ///< Euclidean norm.
double squared_distance(std::span<const double> a, std::span<const double> b);

}  // namespace resmon
