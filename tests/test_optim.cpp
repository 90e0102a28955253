#include "common/optim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "forecast/holt_winters.hpp"
#include "reference_nelder_mead.hpp"

namespace resmon::optim {
namespace {

TEST(NelderMead, MinimizesQuadratic1D) {
  auto f = [](std::span<const double> x) {
    return (x[0] - 3.0) * (x[0] - 3.0);
  };
  const OptimResult r = nelder_mead(f, {0.0});
  EXPECT_NEAR(r.x[0], 3.0, 1e-3);
  EXPECT_LT(r.value, 1e-6);
}

TEST(NelderMead, MinimizesShiftedSphere3D) {
  auto f = [](std::span<const double> x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - static_cast<double>(i + 1);
      s += d * d;
    }
    return s;
  };
  const OptimResult r = nelder_mead(f, {0.0, 0.0, 0.0},
                                    {.max_iterations = 2000});
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
  EXPECT_NEAR(r.x[1], 2.0, 1e-2);
  EXPECT_NEAR(r.x[2], 3.0, 1e-2);
}

TEST(NelderMead, MakesProgressOnRosenbrock) {
  auto f = [](std::span<const double> x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  const OptimResult r =
      nelder_mead(f, {-1.2, 1.0}, {.max_iterations = 5000});
  EXPECT_NEAR(r.x[0], 1.0, 0.05);
  EXPECT_NEAR(r.x[1], 1.0, 0.1);
}

TEST(NelderMead, ReportsConvergenceOnEasyProblem) {
  auto f = [](std::span<const double> x) { return x[0] * x[0]; };
  const OptimResult r = nelder_mead(f, {1.0}, {.max_iterations = 5000});
  EXPECT_TRUE(r.converged);
}

TEST(NelderMead, RespectsIterationBudget) {
  auto f = [](std::span<const double> x) { return std::fabs(x[0]); };
  const OptimResult r = nelder_mead(f, {100.0}, {.max_iterations = 3});
  EXPECT_LE(r.iterations, 3u);
}

TEST(NelderMead, EmptyStartThrows) {
  auto f = [](std::span<const double>) { return 0.0; };
  EXPECT_THROW(nelder_mead(f, {}), InvalidArgument);
}

// ---- Differential oracle: both overloads against the sequential loop ----

void expect_same_result(const OptimResult& got, const OptimResult& want) {
  ASSERT_EQ(got.x.size(), want.x.size());
  for (std::size_t i = 0; i < got.x.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.x[i], &want.x[i], sizeof(double)), 0)
        << "x[" << i << "]: " << got.x[i] << " vs " << want.x[i];
  }
  EXPECT_EQ(std::memcmp(&got.value, &want.value, sizeof(double)), 0)
      << got.value << " vs " << want.value;
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
}

double rosenbrock(std::span<const double> x) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = 1.0 - x[i];
    const double b = x[i + 1] - x[i] * x[i];
    s += a * a + 100.0 * b * b;
  }
  return x.size() == 1 ? (1.0 - x[0]) * (1.0 - x[0]) : s;
}

// Flat steps: a contract point often ties the worst vertex instead of
// beating it, so the simplex keeps shrinking.
double staircase(std::span<const double> x) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    s += std::floor(4.0 * std::fabs(x[i] - 0.3 * static_cast<double>(i)));
  }
  return s;
}

using Scalar = double (*)(std::span<const double>);

struct OracleCase {
  Scalar f;
  std::size_t dims;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  for (std::size_t n = 1; n <= 6; ++n) {
    cases.push_back({rosenbrock, n});
    cases.push_back({staircase, n});
  }
  return cases;
}

std::vector<double> start_point(std::size_t n) {
  std::vector<double> x0(n);
  for (std::size_t i = 0; i < n; ++i) {
    x0[i] = i % 2 == 0 ? -1.2 : 1.0 + 0.1 * static_cast<double>(i);
  }
  return x0;
}

TEST(NelderMeadOracle, ScalarOverloadMatchesSequentialLoop) {
  const NelderMeadOptions options{.max_iterations = 700};
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(::testing::Message() << "dims " << c.dims);
    const auto want =
        oracle::reference_nelder_mead(c.f, start_point(c.dims), options);
    std::size_t evaluations = 0;
    const auto counted = [&](std::span<const double> x) {
      ++evaluations;
      return c.f(x);
    };
    expect_same_result(nelder_mead(counted, start_point(c.dims), options),
                       want.result);
    EXPECT_EQ(evaluations, want.evaluations);
  }
}

TEST(NelderMeadOracle, BatchedOverloadMatchesSequentialLoop) {
  const NelderMeadOptions options{.max_iterations = 700};
  std::size_t staircase_shrinks = 0;
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(::testing::Message() << "dims " << c.dims);
    const auto want =
        oracle::reference_nelder_mead(c.f, start_point(c.dims), options);
    if (c.f == staircase) staircase_shrinks += want.shrinks;
    std::size_t calls = 0;
    std::size_t widest = 0;
    const BatchObjective batched =
        [&](std::span<const std::span<const double>> xs,
            std::span<double> out) {
          ++calls;
          widest = std::max(widest, xs.size());
          ASSERT_EQ(xs.size(), out.size());
          for (std::size_t i = 0; i < xs.size(); ++i) out[i] = c.f(xs[i]);
        };
    expect_same_result(nelder_mead(batched, start_point(c.dims), options),
                       want.result);
    EXPECT_LE(widest, kNelderMeadBatch);
    EXPECT_LT(calls, want.evaluations);
  }
  // The shrink path (batched vertex re-scoring) really ran.
  EXPECT_GE(staircase_shrinks, 20u);
}

// Several resumable searches driven round-robin, one request each per
// round as a lockstep caller drives them, batched or one point at a time:
// every search ends bitwise where the sequential loop ends, after the same
// evaluations when it asks for one point at a time.
TEST(NelderMeadOracle, ResumableSearchesInLockstepMatchSequentialLoop) {
  const NelderMeadOptions options{.max_iterations = 700};
  const std::vector<OracleCase> cases = oracle_cases();
  using Requests = NelderMeadSearch::Requests;
  std::vector<NelderMeadSearch> searches;
  std::vector<std::size_t> batches, evaluations(cases.size(), 0);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const bool batched = i % 4 < 2;  // both ways on every objective
    batches.push_back(batched ? kNelderMeadBatch : 1);
    searches.emplace_back(start_point(cases[i].dims), options,
                          batched ? Requests::kBatched : Requests::kOneAtATime);
  }
  for (bool busy = true; busy;) {
    busy = false;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      NelderMeadSearch& search = searches[i];
      const auto xs = search.pending();
      if (xs.empty()) continue;
      busy = true;
      ASSERT_LE(xs.size(), batches[i]);
      std::vector<double> values;
      for (const std::span<const double> x : xs) {
        values.push_back(cases[i].f(x));
      }
      evaluations[i] += xs.size();
      search.tell(values);
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(::testing::Message()
                 << "case " << i << " batch " << batches[i]);
    ASSERT_TRUE(searches[i].done());
    const auto want = oracle::reference_nelder_mead(
        cases[i].f, start_point(cases[i].dims), options);
    expect_same_result(searches[i].result(), want.result);
    if (batches[i] == 1) {
      EXPECT_EQ(evaluations[i], want.evaluations);
    }
  }
}

TEST(NelderMeadOracle, ResumableSearchRejectsMisuse) {
  EXPECT_THROW(NelderMeadSearch({}, {}), InvalidArgument);
  NelderMeadSearch search({1.0, 2.0}, {});
  ASSERT_EQ(search.pending().size(), 3u);
  EXPECT_THROW(search.result(), InvalidArgument);
  const double one = 1.0;
  EXPECT_THROW(search.tell({&one, 1}), InvalidArgument);
  while (!search.done()) {
    std::vector<double> values;
    for (const std::span<const double> x : search.pending()) {
      values.push_back(rosenbrock(x));
    }
    search.tell(values);
  }
  EXPECT_THROW(search.tell({}), InvalidArgument);
}

// Holt-Winters hands nelder_mead a scalar objective, so batching must not
// change how often it is evaluated. The objective is rebuilt here from the
// public API; the fitted parameters prove it is the one fit() minimizes.
TEST(NelderMeadOracle, HoltWintersEvaluationCountIsPinned) {
  std::vector<double> series(120);
  for (std::size_t t = 0; t < series.size(); ++t) {
    const double tt = static_cast<double>(t);
    series[t] = 0.5 + 0.002 * tt + 0.1 * std::sin(tt * 0.5236) +
                0.01 * std::cos(tt * 1.7);
  }
  const forecast::HoltWintersOptions defaults{.season = 12};
  const auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
  std::size_t evaluations = 0;
  const auto objective = [&](std::span<const double> p) {
    ++evaluations;
    double penalty = 0.0;
    for (const double v : p) {
      penalty += std::max(0.0, v - 1.0) + std::max(0.0, -v);
    }
    forecast::HoltWintersForecaster fixed({.season = 12,
                                           .optimize = false,
                                           .alpha = clamp01(p[0]),
                                           .beta = clamp01(p[1]),
                                           .gamma = clamp01(p[2])});
    fixed.fit(series);
    return fixed.training_sse() * (1.0 + penalty) + penalty;
  };
  const std::vector<double> x0{defaults.alpha, defaults.beta, defaults.gamma};
  const OptimResult r = nelder_mead(objective, x0, defaults.optimizer);
  const std::size_t counted = evaluations;
  const auto want =
      oracle::reference_nelder_mead(objective, x0, defaults.optimizer);
  EXPECT_EQ(counted, want.evaluations);
  EXPECT_EQ(counted, 236u);
  expect_same_result(r, want.result);

  forecast::HoltWintersForecaster hw(defaults);
  hw.fit(series);
  EXPECT_EQ(hw.alpha(), clamp01(r.x[0]));
  EXPECT_EQ(hw.beta(), clamp01(r.x[1]));
  EXPECT_EQ(hw.gamma(), clamp01(r.x[2]));
}

TEST(Adam, ConvergesOnQuadratic) {
  std::vector<double> params{5.0, -3.0};
  Adam adam(2, {.learning_rate = 0.1});
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> grad{2.0 * (params[0] - 1.0),
                                   2.0 * (params[1] + 2.0)};
    adam.step(params, grad);
  }
  EXPECT_NEAR(params[0], 1.0, 1e-2);
  EXPECT_NEAR(params[1], -2.0, 1e-2);
}

TEST(Adam, FirstStepIsBoundedByLearningRate) {
  std::vector<double> params{0.0};
  Adam adam(1, {.learning_rate = 0.01});
  adam.step(params, std::vector<double>{1000.0});
  // Bias-corrected Adam moves by ~lr regardless of gradient magnitude.
  EXPECT_NEAR(params[0], -0.01, 1e-4);
}

TEST(Adam, DimensionMismatchThrows) {
  Adam adam(2);
  std::vector<double> params{0.0, 0.0};
  EXPECT_THROW(adam.step(params, std::vector<double>{1.0}),
               InvalidArgument);
}

TEST(Adam, ZeroDimensionThrows) { EXPECT_THROW(Adam(0), InvalidArgument); }

TEST(Adam, TracksStepCount) {
  Adam adam(1);
  std::vector<double> p{0.0};
  const std::vector<double> g{1.0};
  adam.step(p, g);
  adam.step(p, g);
  EXPECT_EQ(adam.steps_taken(), 2u);
}

// Property sweep: Nelder-Mead finds the minimum of |x - c| + (y - c)^2 for
// a range of offsets c.
class NelderMeadOffsetTest : public ::testing::TestWithParam<double> {};

TEST_P(NelderMeadOffsetTest, FindsShiftedMinimum) {
  const double c = GetParam();
  auto f = [c](std::span<const double> x) {
    return std::fabs(x[0] - c) + (x[1] - c) * (x[1] - c);
  };
  const OptimResult r =
      nelder_mead(f, {0.0, 0.0}, {.max_iterations = 4000});
  EXPECT_NEAR(r.x[0], c, 0.05);
  EXPECT_NEAR(r.x[1], c, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Offsets, NelderMeadOffsetTest,
                         ::testing::Values(-2.0, -0.3, 0.0, 0.7, 4.0));

}  // namespace
}  // namespace resmon::optim
