// Equivalence tests for the SoA hot-path kernels (common/kernels.hpp).
//
// The SIMD path is required to be BIT-IDENTICAL to the scalar path — the
// golden traces pin the scalar results, so any divergence is a correctness
// bug, not a tolerance question. See "Memory layout & SIMD kernels" in
// DESIGN.md for why the vectorization (one point per lane, dim-order
// accumulation preserved) makes that guarantee possible.
#include "common/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/dynamic_cluster.hpp"
#include "cluster/kmeans.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/soa.hpp"
#include "reference_reindex.hpp"

namespace resmon {
namespace {

using cluster::KMeansResult;

/// Restores the globally selected kernel path on scope exit.
class PathGuard {
 public:
  PathGuard() : saved_(kern::active_path()) {}
  ~PathGuard() { kern::set_path(saved_); }

 private:
  kern::Path saved_;
};

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Matrix random_points(std::size_t n, std::size_t d, Rng& rng) {
  Matrix points(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      points(i, c) = rng.normal(0.0, 1.0);
    }
  }
  return points;
}

/// Per-chunk partials and assignment of one Lloyd pass over all points.
struct LloydPass {
  std::vector<std::size_t> assignment;
  std::vector<double> inertia;
  std::vector<std::size_t> counts;
  std::vector<double> sums;
};

/// The pass lloyd_lanes documents, one point at a time: the nearest
/// centroid by a strict-< scan, then each 256-point chunk's squared
/// distances, counts and coordinates summed in point order from zero.
LloydPass reference_lloyd_pass(const Matrix& points, const Matrix& centroids) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t k = centroids.rows();
  const std::size_t chunks = (n + kern::kLloydChunk - 1) / kern::kLloydChunk;
  LloydPass want{std::vector<std::size_t>(n), std::vector<double>(chunks),
                 std::vector<std::size_t>(chunks * k),
                 std::vector<double>(chunks * k * d)};
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = i / kern::kLloydChunk;
    std::size_t best_j = 0;
    double best = squared_distance(points.row(i), centroids.row(0));
    for (std::size_t j = 1; j < k; ++j) {
      const double d2 = squared_distance(points.row(i), centroids.row(j));
      if (d2 < best) {
        best = d2;
        best_j = j;
      }
    }
    want.assignment[i] = best_j;
    want.inertia[c] += best;
    ++want.counts[c * k + best_j];
    for (std::size_t dim = 0; dim < d; ++dim) {
      want.sums[(c * k + best_j) * d + dim] += points(i, dim);
    }
  }
  return want;
}

/// Runs lloyd_lanes over every group of kLloydLanes chunks, into buffers
/// pre-filled with NaN (the kernel must zero its partials itself), then
/// scatters the lanes' assignment to point order.
LloydPass run_lloyd_pass(const Matrix& points, const Matrix& centroids) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t k = centroids.rows();
  const std::size_t chunks = (n + kern::kLloydChunk - 1) / kern::kLloydChunk;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LloydPass got{std::vector<std::size_t>(n, k),
                std::vector<double>(chunks, nan),
                std::vector<std::size_t>(chunks * k, n + 1),
                std::vector<double>(chunks * k * d, nan)};
  SoaMatrix soa;
  soa.assign_from(points);
  std::vector<double> lanes(n * d, nan);
  kern::lloyd_interleave(soa.col_ptrs(), n, d, k, lanes.data());
  std::vector<std::size_t> lane_assignment(n, n + 2);
  const kern::LloydAssignment assignment{got.assignment.data(),
                                         lane_assignment.data()};
  constexpr std::size_t kGroup = kern::kLloydChunk * kern::kLloydLanes;
  for (std::size_t begin = 0; begin < n; begin += kGroup) {
    const std::size_t c = begin / kern::kLloydChunk;
    kern::lloyd_lanes({soa.col_ptrs(), lanes.data()}, d,
                      centroids.data().data(), k, begin,
                      std::min(n, begin + kGroup), assignment,
                      {got.inertia.data() + c, got.counts.data() + c * k,
                       got.sums.data() + c * k * d});
  }
  kern::lloyd_scatter(assignment, n, d, k);
  return got;
}

void expect_same_bits(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t e = 0; e < got.size(); ++e) {
    EXPECT_TRUE(bitwise_equal(got[e], want[e]))
        << what << "[" << e << "]: " << got[e] << " vs " << want[e];
  }
}

/// NaN coordinates check_lloyd_pass plants: none, in one point of every
/// 97 (all that point's distances are NaN), in centroid 0 (every point's
/// first distance is NaN) or in the last centroid (every point's last
/// distance is NaN).
enum class NanAt { kNowhere, kPoints, kFirstCentroid, kLastCentroid };

/// Runs lloyd_lanes on every path and asserts it matches the one-point-at-
/// a-time pass bit for bit. A positive `quantum` rounds points and
/// centroids to multiples of it, which makes exact distance ties common.
void check_lloyd_pass(std::size_t n, std::size_t d, std::size_t k,
                      double quantum = 0.0, NanAt nan_at = NanAt::kNowhere) {
  SCOPED_TRACE(::testing::Message()
               << "n " << n << " d " << d << " k " << k << " quantum "
               << quantum << " nan " << static_cast<int>(nan_at));
  PathGuard guard;
  Rng rng(17 + n + 10 * d + 100 * k);
  Matrix points = random_points(n, d, rng);
  Matrix centroids = random_points(k, d, rng);
  if (quantum > 0.0) {
    for (double& v : points.data()) v = quantum * std::round(v / quantum);
    for (double& v : centroids.data()) v = quantum * std::round(v / quantum);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (nan_at) {
    case NanAt::kNowhere:
      break;
    case NanAt::kPoints:
      for (std::size_t i = 5; i < n; i += 97) points(i, i % d) = nan;
      break;
    case NanAt::kFirstCentroid:
      centroids(0, d - 1) = nan;
      break;
    case NanAt::kLastCentroid:
      centroids(k - 1, 0) = nan;
      break;
  }
  const LloydPass want = reference_lloyd_pass(points, centroids);
  std::vector<kern::Path> paths{kern::Path::kScalar};
  if (kern::simd_supported()) paths.push_back(kern::Path::kSimd);
  for (const kern::Path path : paths) {
    SCOPED_TRACE(::testing::Message() << "path " << static_cast<int>(path));
    kern::set_path(path);
    const LloydPass got = run_lloyd_pass(points, centroids);
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.counts, want.counts);
    expect_same_bits(got.inertia, want.inertia, "inertia");
    expect_same_bits(got.sums, want.sums, "sums");
  }
}

TEST(Kernels, NearestCentroidsMatchesScalarBitwise) {
  check_lloyd_pass(257, 3, 5);
}

TEST(Kernels, NearestCentroidsScalarDimension) {
  check_lloyd_pass(300, 1, 10);
}

TEST(Kernels, NearestCentroidsWindowShorterThanVectorWidth) {
  // Fewer points than any unroll/vector width: the tail path must agree.
  for (std::size_t n = 1; n <= 7; ++n) check_lloyd_pass(n, 2, 3);
}

TEST(Kernels, NearestCentroidsOneClusterPerPoint) {
  // K == n (every point its own cluster) exercises the densest argmin.
  check_lloyd_pass(16, 2, 16);
}

TEST(Kernels, LloydLanesMatchPointLoopBitwise) {
  // d <= 4 with K <= 10 takes the chunk lanes on a group of four chunks,
  // d = 1 from the interleaved copy; d = 5, K = 11 and groups of fewer
  // chunks take the one-chunk loop. The point counts give groups of fewer
  // than four chunks (1, 255, 256), a group whose last chunk is short
  // (1000, 1023), whole groups (1024, 2048) and a short tail chunk after
  // them (1025, 2065). Quantized points tie exactly; a NaN distance never
  // wins, and a NaN first distance keeps centroid 0.
  for (const std::size_t n : {1, 255, 256, 1000, 1023, 1024, 1025, 2048,
                              2065}) {
    for (const std::size_t d : {1, 2, 3, 4, 5}) {
      for (const std::size_t k : {1, 2, 3, 4, 10, 11}) {
        if (k > n) continue;
        check_lloyd_pass(n, d, k);
        check_lloyd_pass(n, d, k, 0.5);
        for (const NanAt nan_at : {NanAt::kPoints, NanAt::kFirstCentroid,
                                   NanAt::kLastCentroid}) {
          check_lloyd_pass(n, d, k, 0.5, nan_at);
        }
      }
    }
  }
}

TEST(Kernels, MinDistanceUpdateMatchesScalarBitwise) {
  if (!kern::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  PathGuard guard;
  Rng rng(41);
  const std::size_t n = 129;
  const std::size_t d = 4;
  const Matrix points = random_points(n, d, rng);
  const Matrix c = random_points(1, d, rng);
  SoaMatrix soa;
  soa.assign_from(points);

  std::vector<double> scalar(n, 1e300), simd(n, 1e300);
  kern::set_path(kern::Path::kScalar);
  kern::min_distance_update(soa.col_ptrs(), d, c.data().data(), 0, n,
                            scalar.data());
  kern::set_path(kern::Path::kSimd);
  kern::min_distance_update(soa.col_ptrs(), d, c.data().data(), 0, n,
                            simd.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bitwise_equal(scalar[i], simd[i])) << "point " << i;
  }
}

// ---- css_lanes against a plain one-vector CSS recursion ----

using Terms = std::vector<std::pair<std::size_t, double>>;

/// The recursion css_lanes documents, one coefficient vector at a time.
double reference_css(const std::vector<double>& w, double mean,
                     const Terms& ar, const Terms& ma, std::size_t css_from,
                     std::vector<double>& e) {
  e.assign(w.size(), 0.0);
  double css = 0.0;
  for (std::size_t t = 0; t < w.size(); ++t) {
    double acc = w[t] - mean;
    for (const auto& [lag, a] : ar) {
      if (t >= lag) acc -= a * (w[t - lag] - mean);
    }
    for (const auto& [lag, b] : ma) {
      if (t >= lag) acc -= b * e[t - lag];
    }
    e[t] = acc;
    if (t >= css_from) css += acc * acc;
  }
  return css;
}

/// Lags of a multiplicative seasonal ARMA(p,q)(P,Q)_s, in the order ARIMA
/// lists its expanded polynomial terms.
std::vector<std::size_t> seasonal_lags(std::size_t p, std::size_t sp,
                                       std::size_t s) {
  std::vector<std::size_t> lags;
  for (std::size_t i = 1; i <= p; ++i) lags.push_back(i);
  for (std::size_t I = 1; I <= sp; ++I) {
    lags.push_back(s * I);
    for (std::size_t i = 1; i <= p; ++i) lags.push_back(s * I + i);
  }
  return lags;
}

std::vector<double> differenced(std::vector<double> x, std::size_t lag) {
  for (std::size_t t = x.size(); t-- > lag;) x[t] -= x[t - lag];
  x.erase(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(lag));
  return x;
}

struct CssCase {
  std::size_t p, d, q, sp, sd, sq, season;
  bool mean;
  std::size_t length;
  std::size_t lanes;
};

// One group of a css_lanes check: its own series and lane coefficients.
struct CssCheckGroup {
  std::vector<double> w, ar_coef, ma_coef, scratch;
  double mean[kern::kCssLanes];
  double css[kern::kCssLanes];
};

// Runs the case at every group count, each group on its own series, and
// checks every lane of every group against the one-vector recursion.
void check_css_lanes(const CssCase& c, Rng& rng) {
  constexpr std::size_t kL = kern::kCssLanes;
  const std::vector<std::size_t> ar_lag = seasonal_lags(c.p, c.sp, c.season);
  const std::vector<std::size_t> ma_lag = seasonal_lags(c.q, c.sq, c.season);
  std::size_t max_ar_lag = 0;
  for (std::size_t lag : ar_lag) max_ar_lag = std::max(max_ar_lag, lag);

  std::vector<CssCheckGroup> groups(kern::kCssGroups);
  for (CssCheckGroup& g : groups) {
    g.w.resize(c.length);
    for (double& v : g.w) v = rng.normal(0.5, 0.2);
    for (std::size_t i = 0; i < c.sd; ++i) g.w = differenced(g.w, c.season);
    for (std::size_t i = 0; i < c.d; ++i) g.w = differenced(g.w, 1);
    // Distinct coefficients in the first c.lanes lanes; spare lanes repeat
    // lane 0, as ARIMA's batches do.
    g.ar_coef.resize(ar_lag.size() * kL);
    g.ma_coef.resize(ma_lag.size() * kL);
    for (std::size_t l = 0; l < kL; ++l) {
      const std::size_t src = l < c.lanes ? l : 0;
      for (std::size_t k = 0; k < ar_lag.size(); ++k) {
        g.ar_coef[k * kL + l] =
            l == src ? rng.normal(0.0, 0.4) : g.ar_coef[k * kL + src];
      }
      for (std::size_t k = 0; k < ma_lag.size(); ++k) {
        g.ma_coef[k * kL + l] =
            l == src ? rng.normal(0.0, 0.4) : g.ma_coef[k * kL + src];
      }
      g.mean[l] = !c.mean ? 0.0 : l == src ? rng.normal(0.5, 0.1) : g.mean[src];
    }
  }
  const std::size_t n = groups[0].w.size();

  std::vector<kern::Path> paths{kern::Path::kScalar};
  if (kern::simd_supported()) paths.push_back(kern::Path::kSimd);
  for (const kern::Path path : paths) {
    kern::set_path(path);
    for (std::size_t count = 1; count <= kern::kCssGroups; ++count) {
      std::vector<kern::CssGroup> pass;
      for (std::size_t g = 0; g < count; ++g) {
        CssCheckGroup& cg = groups[g];
        cg.scratch.assign(n * kL, 0.0);
        pass.push_back({cg.w.data(), cg.mean, cg.ar_coef.data(),
                        cg.ma_coef.data(), cg.scratch.data(), cg.css});
      }
      kern::css_lanes(pass.data(), count, n,
                      {ar_lag.data(), ar_lag.size(), ma_lag.data(),
                       ma_lag.size()},
                      max_ar_lag);
      for (std::size_t g = 0; g < count; ++g) {
        const CssCheckGroup& cg = groups[g];
        for (std::size_t l = 0; l < c.lanes; ++l) {
          Terms ar, ma;
          for (std::size_t k = 0; k < ar_lag.size(); ++k) {
            ar.emplace_back(ar_lag[k], cg.ar_coef[k * kL + l]);
          }
          for (std::size_t k = 0; k < ma_lag.size(); ++k) {
            ma.emplace_back(ma_lag[k], cg.ma_coef[k * kL + l]);
          }
          std::vector<double> e;
          const double want =
              reference_css(cg.w, cg.mean[l], ar, ma, max_ar_lag, e);
          EXPECT_TRUE(bitwise_equal(cg.css[l], want))
              << "path " << static_cast<int>(path) << " groups " << count
              << " group " << g << " lane " << l << ": " << cg.css[l]
              << " vs " << want;
          for (std::size_t t = 0; t < n; ++t) {
            ASSERT_TRUE(bitwise_equal(cg.scratch[t * kL + l], e[t]))
                << "path " << static_cast<int>(path) << " groups " << count
                << " group " << g << " lane " << l << " t " << t;
          }
        }
      }
    }
  }
}

TEST(Kernels, CssLanesMatchScalarRecursionBitwise) {
  PathGuard guard;
  Rng rng(43);
  // Named shapes: q = 2 without a mean, pure AR, pure MA, no terms at all,
  // and a series shorter than the deepest lag.
  const std::vector<CssCase> named{
      {.p = 0, .d = 1, .q = 2, .sp = 0, .sd = 0, .sq = 0, .season = 0,
       .mean = false, .length = 300, .lanes = 4},
      {.p = 2, .d = 0, .q = 0, .sp = 1, .sd = 0, .sq = 0, .season = 12,
       .mean = true, .length = 250, .lanes = 3},
      {.p = 0, .d = 0, .q = 2, .sp = 0, .sd = 1, .sq = 2, .season = 7,
       .mean = false, .length = 200, .lanes = 2},
      {.p = 0, .d = 2, .q = 0, .sp = 0, .sd = 0, .sq = 0, .season = 0,
       .mean = false, .length = 50, .lanes = 1},
      {.p = 2, .d = 0, .q = 1, .sp = 2, .sd = 0, .sq = 0, .season = 24,
       .mean = true, .length = 40, .lanes = 4},
  };
  for (const CssCase& c : named) check_css_lanes(c, rng);
  // Every non-seasonal p, q <= 2: the term counts with their own instance.
  for (std::size_t p = 0; p <= 2; ++p) {
    for (std::size_t q = 0; q <= 2; ++q) {
      check_css_lanes({.p = p, .d = 0, .q = q, .sp = 0, .sd = 0, .sq = 0,
                       .season = 0, .mean = true, .length = 150,
                       .lanes = 1 + (3 * p + q) % kern::kCssLanes},
                      rng);
    }
  }
  // Random orders with seasonal P/Q, d/D and 1-4 lanes.
  for (std::size_t trial = 0; trial < 48; ++trial) {
    const auto pick = [&](std::size_t hi) {
      return static_cast<std::size_t>(rng.uniform() * (hi + 1)) % (hi + 1);
    };
    CssCase c{.p = pick(3), .d = pick(2), .q = pick(2), .sp = pick(2),
              .sd = pick(1), .sq = pick(2), .season = 2 + pick(10),
              .mean = false, .length = 30 + pick(400),
              .lanes = 1 + trial % kern::kCssLanes};
    c.mean = c.d == 0 && c.sd == 0;
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    check_css_lanes(c, rng);
  }
}

TEST(Kernels, CssLanesRejectsAGroupCountOutsideOneToKCssGroups) {
  constexpr std::size_t kL = kern::kCssLanes;
  const std::vector<double> w(40, 0.5);
  const std::size_t lag = 1;
  const std::vector<double> coef(kL, 0.2);
  double mean[kL] = {};
  std::vector<double> scratch(w.size() * kL);
  double css[kL] = {-1.0, -1.0, -1.0, -1.0};
  const std::vector<kern::CssGroup> groups(
      kern::kCssGroups + 1, {w.data(), mean, coef.data(), coef.data(),
                             scratch.data(), css});
  const kern::CssLags lags{&lag, 1, &lag, 1};
  EXPECT_THROW(kern::css_lanes(groups.data(), 0, w.size(), lags, 1),
               InvalidArgument);
  EXPECT_THROW(kern::css_lanes(groups.data(), kern::kCssGroups + 1, w.size(),
                               lags, 1),
               InvalidArgument);
  EXPECT_EQ(css[0], -1.0);  // refused before any pass
}

/// `steps` assignments of n nodes to k clusters, oldest first. Sticky
/// nodes keep their cluster from one step to the next with probability
/// 0.9, so many stay put through the whole lookback; random ones redraw.
std::vector<std::vector<std::size_t>> random_assignments(
    std::size_t steps, std::size_t n, std::size_t k, bool sticky, Rng& rng) {
  std::vector<std::vector<std::size_t>> out(steps,
                                            std::vector<std::size_t>(n));
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      const bool keep = sticky && s > 0 && rng.uniform() < 0.9;
      out[s][i] = keep ? out[s - 1][i] : rng.index(k);
    }
  }
  return out;
}

// The re-indexing weights once ran through two mask kernels; they are
// now per-node pair counts, checked here against the mask algorithm
// (tests/reference_reindex.hpp) on every kernel path.
TEST(Kernels, ReindexKernelsMatchScalarBitwise) {
  PathGuard guard;
  Rng rng(47);
  const std::size_t n = 211;
  for (const kern::Path path : {kern::Path::kScalar, kern::Path::kSimd}) {
    if (path == kern::Path::kSimd && !kern::simd_supported()) continue;
    kern::set_path(path);
    cluster::ReindexScratch scratch;
    Matrix w;
    for (const auto kind : {cluster::SimilarityKind::kIntersection,
                            cluster::SimilarityKind::kJaccard}) {
      for (const std::size_t m : {1, 2, 5}) {
        for (const std::size_t k : {1, 2, 3, 7, 10}) {
          for (const bool sticky : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "path " << static_cast<int>(path) << " kind "
                         << static_cast<int>(kind) << " M " << m << " K "
                         << k << (sticky ? " sticky" : " random"));
            // m past steps plus the fresh one; the history holds one more
            // step than is read, as when the temporal window deepens it.
            const auto steps = random_assignments(m + 2, n, k, sticky, rng);
            cluster::ClusterHistory history(m + 2);
            for (const std::vector<std::size_t>& assignment : steps) {
              cluster::Clustering clustering;
              clustering.assignment = assignment;
              clustering.centroids = Matrix(k, 1);
              history.push(Matrix(n, 1), clustering);
            }
            const std::vector<std::size_t>& fresh = steps.back();
            std::vector<std::vector<std::size_t>> past;
            for (std::size_t age = 1; age <= m; ++age) {
              past.push_back(steps[steps.size() - 1 - age]);
            }
            cluster::reindex_weights_into(fresh, history, m, k, kind, scratch,
                                          w);
            const Matrix want =
                oracle::reference_reindex_weights(fresh, past, k, kind);
            ASSERT_EQ(w.rows(), k);
            ASSERT_EQ(w.cols(), k);
            double total = 0.0;
            for (std::size_t c = 0; c < k * k; ++c) {
              total += w.data()[c];
              EXPECT_TRUE(bitwise_equal(w.data()[c], want.data()[c]))
                  << "cell " << c << ": " << w.data()[c] << " vs "
                  << want.data()[c];
            }
            if (sticky || m == 1) {
              EXPECT_GT(total, 0.0) << "no node stayed";
            }
          }
        }
      }
    }
  }
}

/// End-to-end: a whole K-means run must be bit-identical across paths.
TEST(Kernels, KMeansIdenticalAcrossPaths) {
  if (!kern::simd_supported()) GTEST_SKIP() << "no AVX2 on this host";
  PathGuard guard;
  const Matrix points = [] {
    Rng rng(7);
    return random_points(400, 3, rng);
  }();

  kern::set_path(kern::Path::kScalar);
  Rng rng_scalar(11);
  const KMeansResult scalar = cluster::kmeans(points, 6, rng_scalar);
  kern::set_path(kern::Path::kSimd);
  Rng rng_simd(11);
  const KMeansResult simd = cluster::kmeans(points, 6, rng_simd);

  EXPECT_EQ(scalar.assignment, simd.assignment);
  EXPECT_EQ(scalar.iterations, simd.iterations);
  EXPECT_TRUE(bitwise_equal(scalar.inertia, simd.inertia));
  ASSERT_EQ(scalar.centroids.rows(), simd.centroids.rows());
  for (std::size_t j = 0; j < scalar.centroids.rows(); ++j) {
    for (std::size_t c = 0; c < scalar.centroids.cols(); ++c) {
      EXPECT_TRUE(
          bitwise_equal(scalar.centroids(j, c), simd.centroids(j, c)))
          << "centroid " << j << " dim " << c;
    }
  }
}

TEST(Kernels, SoaMatrixRoundTrips) {
  Rng rng(3);
  const Matrix m = random_points(13, 4, rng);
  SoaMatrix soa;
  soa.assign_from(m);
  ASSERT_EQ(soa.rows(), m.rows());
  ASSERT_EQ(soa.cols(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(soa(i, c), m(i, c));
      EXPECT_EQ(soa.col(c)[i], m(i, c));
      EXPECT_EQ(soa.col_ptrs()[c][i], m(i, c));
    }
  }
}

TEST(Kernels, PathSelectionResolves) {
  // active_path() reports the path that will actually run: explicit
  // selections round-trip, kAuto resolves to the host's best path.
  PathGuard guard;
  kern::set_path(kern::Path::kScalar);
  EXPECT_EQ(kern::active_path(), kern::Path::kScalar);
  kern::set_path(kern::Path::kAuto);
  EXPECT_EQ(kern::active_path(), kern::simd_supported()
                                     ? kern::Path::kSimd
                                     : kern::Path::kScalar);
}

}  // namespace
}  // namespace resmon
