#include "completion/matrix_completion.hpp"

#include "common/rng.hpp"

namespace resmon::completion {

namespace {

/// Solve the ridge least-squares for one row of a factor: given the other
/// factor F (n x r), the observed indices and values, return
/// argmin_u ||F_obs u - y||^2 + ridge ||u||^2.
std::vector<double> solve_row(const Matrix& f,
                              const std::vector<std::size_t>& observed,
                              const std::vector<double>& values,
                              double ridge) {
  const std::size_t r = f.cols();
  Matrix gram(r, r);
  std::vector<double> rhs(r, 0.0);
  for (std::size_t n = 0; n < observed.size(); ++n) {
    const auto row = f.row(observed[n]);
    for (std::size_t a = 0; a < r; ++a) {
      rhs[a] += row[a] * values[n];
      for (std::size_t b = a; b < r; ++b) {
        gram(a, b) += row[a] * row[b];
      }
    }
  }
  for (std::size_t a = 0; a < r; ++a) {
    for (std::size_t b = 0; b < a; ++b) gram(a, b) = gram(b, a);
    gram(a, a) += ridge;
  }
  return solve_spd(gram, rhs);
}

}  // namespace

Matrix complete_matrix(const Matrix& observed,
                       const std::vector<bool>& mask,
                       const CompletionOptions& options) {
  const std::size_t rows = observed.rows();
  const std::size_t cols = observed.cols();
  RESMON_REQUIRE(rows > 0 && cols > 0, "complete_matrix: empty matrix");
  RESMON_REQUIRE(mask.size() == rows * cols,
                 "complete_matrix: mask size mismatch");
  RESMON_REQUIRE(options.rank >= 1 &&
                     options.rank <= std::min(rows, cols),
                 "complete_matrix: rank out of range");
  RESMON_REQUIRE(options.iterations >= 1,
                 "complete_matrix: need at least one sweep");
  RESMON_REQUIRE(options.ridge > 0.0, "complete_matrix: ridge must be > 0");

  const std::size_t r = options.rank;
  Rng rng(options.seed);
  Matrix u(rows, r);
  Matrix v(cols, r);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t a = 0; a < r; ++a) u(i, a) = rng.uniform(0.0, 1.0);
  }
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t a = 0; a < r; ++a) v(j, a) = rng.uniform(0.0, 1.0);
  }

  // Pre-index the observations per row and per column.
  std::vector<std::vector<std::size_t>> row_obs(rows), col_obs(cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (mask[i * cols + j]) {
        row_obs[i].push_back(j);
        col_obs[j].push_back(i);
      }
    }
  }

  std::vector<double> values;
  for (std::size_t sweep = 0; sweep < options.iterations; ++sweep) {
    // Update U given V.
    for (std::size_t i = 0; i < rows; ++i) {
      if (row_obs[i].empty()) continue;  // stays at its current value
      values.clear();
      for (const std::size_t j : row_obs[i]) values.push_back(observed(i, j));
      const std::vector<double> sol =
          solve_row(v, row_obs[i], values, options.ridge);
      for (std::size_t a = 0; a < r; ++a) u(i, a) = sol[a];
    }
    // Update V given U.
    for (std::size_t j = 0; j < cols; ++j) {
      if (col_obs[j].empty()) continue;
      values.clear();
      for (const std::size_t i : col_obs[j]) values.push_back(observed(i, j));
      const std::vector<double> sol =
          solve_row(u, col_obs[j], values, options.ridge);
      for (std::size_t a = 0; a < r; ++a) v(j, a) = sol[a];
    }
  }
  return u * v.transposed();
}

}  // namespace resmon::completion
