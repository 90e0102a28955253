#include "common/matrix.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace resmon {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), InvalidArgument);
}

TEST(Matrix, IdentityTimesAnythingIsIdentityOp) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix i = Matrix::identity(2);
  const Matrix prod = i * a;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_DOUBLE_EQ(prod(r, c), a(r, c));
    }
  }
}

TEST(Matrix, ProductKnownValues) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, ProductShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(a * b, InvalidArgument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  const Matrix tt = t.transposed();
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt(r, c), a(r, c));
  }
}

TEST(Matrix, PlusMinusScale) {
  Matrix a{{1.0, 2.0}};
  Matrix b{{3.0, 5.0}};
  a += b;
  EXPECT_DOUBLE_EQ(a(0, 0), 4.0);
  a -= b;
  EXPECT_DOUBLE_EQ(a(0, 1), 2.0);
  a *= 3.0;
  EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
}

TEST(Matrix, ApplyMatchesManualMatVec) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> v{1.0, 1.0};
  const std::vector<double> out = a.apply(v);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(Cholesky, FactorizesKnownSpdMatrix) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const Matrix l = cholesky(a);
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  EXPECT_THROW(cholesky(a), NumericalError);
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_THROW(cholesky(a), InvalidArgument);
}

TEST(SolveSpd, RecoversKnownSolution) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const std::vector<double> x_true{1.0, -2.0};
  const std::vector<double> b = a.apply(x_true);
  const std::vector<double> x = solve_spd(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], -2.0, 1e-10);
}

TEST(SolveSpd, MultipleRightHandSides) {
  Matrix a{{2.0, 0.0}, {0.0, 5.0}};
  Matrix b{{2.0, 4.0}, {5.0, 10.0}};
  const Matrix x = solve_spd(a, b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 2.0, 1e-12);
}

TEST(VectorOps, DotNormDistance) {
  const std::vector<double> a{3.0, 4.0};
  const std::vector<double> b{1.0, 0.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 3.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 4.0 + 16.0);
}

// Property: solve_spd(A, A x) == x for random SPD A = B B^T + n I.
class SolveSpdPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SolveSpdPropertyTest, RoundTripsRandomSystems) {
  const std::size_t n = GetParam();
  Rng rng(n);
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.normal();
  }
  Matrix a = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  std::vector<double> x_true(n);
  for (double& v : x_true) v = rng.normal();
  const std::vector<double> rhs = a.apply(x_true);
  const std::vector<double> x = solve_spd(a, rhs);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-8) << "dim " << n << " index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSpdPropertyTest,
                         ::testing::Values(1, 2, 5, 10, 25, 60));

}  // namespace
}  // namespace resmon
