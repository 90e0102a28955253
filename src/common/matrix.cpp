#include "common/matrix.hpp"

#include <cassert>
#include <cmath>

namespace resmon {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    RESMON_REQUIRE(r.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  RESMON_REQUIRE(cols_ == rhs.rows_, "matrix product shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out(r, c) += a * rhs(k, c);
      }
    }
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  RESMON_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                 "matrix sum shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  RESMON_REQUIRE(rows_ == rhs.rows_ && cols_ == rhs.cols_,
                 "matrix difference shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

std::vector<double> Matrix::apply(std::span<const double> v) const {
  RESMON_REQUIRE(v.size() == cols_, "matrix-vector shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    out[r] = dot(row(r), v);
  }
  return out;
}

Matrix cholesky(const Matrix& a) {
  RESMON_REQUIRE(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) {
      throw NumericalError("cholesky: matrix is not positive definite");
    }
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      l(i, j) = s / l(j, j);
    }
  }
  return l;
}

namespace {

// Forward/back substitution against a lower-triangular factor L.
std::vector<double> cholesky_solve(const Matrix& l,
                                   std::span<const double> b) {
  const std::size_t n = l.rows();
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * y[k];
    y[i] = s / l(i, i);
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

}  // namespace

std::vector<double> solve_spd(const Matrix& a, std::span<const double> b) {
  RESMON_REQUIRE(a.rows() == b.size(), "solve_spd shape mismatch");
  return cholesky_solve(cholesky(a), b);
}

Matrix solve_spd(const Matrix& a, const Matrix& b) {
  RESMON_REQUIRE(a.rows() == b.rows(), "solve_spd shape mismatch");
  const Matrix l = cholesky(a);
  Matrix x(b.rows(), b.cols());
  std::vector<double> col(b.rows());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
    const std::vector<double> sol = cholesky_solve(l, col);
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = sol[r];
  }
  return x;
}

double dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double squared_distance(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace resmon
