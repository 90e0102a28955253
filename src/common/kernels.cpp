#include "common/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"

// Two instances of every kernel body. The SIMD instance is compiled for
// AVX2 via the target attribute (note: *not* "avx2,fma" — fused
// multiply-add would contract `acc += diff * diff` and break bitwise
// equality with the scalar instance; this TU is additionally built with
// -ffp-contract=off as insurance). The `#pragma omp simd` annotations are
// enabled project-wide by -fopenmp-simd, which implies no OpenMP runtime.
// RESMON_KERNEL_AVX2 lets a body give one instance its own operation
// sequence, such as an AVX2 builtin, when both produce the same bits.

namespace resmon::kern {

namespace scalar {
#define RESMON_KERNEL_FN
#define RESMON_KERNEL_LOOP
#define RESMON_KERNEL_AVX2 0
#include "common/kernels_impl.inc"  // NOLINT(bugprone-suspicious-include)
#undef RESMON_KERNEL_FN
#undef RESMON_KERNEL_LOOP
#undef RESMON_KERNEL_AVX2
}  // namespace scalar

namespace simd {
#define RESMON_KERNEL_FN __attribute__((target("avx2")))
#define RESMON_KERNEL_LOOP _Pragma("omp simd")
#define RESMON_KERNEL_AVX2 1
#include "common/kernels_impl.inc"  // NOLINT(bugprone-suspicious-include)
#undef RESMON_KERNEL_FN
#undef RESMON_KERNEL_LOOP
#undef RESMON_KERNEL_AVX2
}  // namespace simd

namespace {

std::atomic<Path> g_path{Path::kAuto};

Path resolve(Path p) {
  if (p != Path::kAuto) return p;
  return simd_supported() ? Path::kSimd : Path::kScalar;
}

inline bool use_simd() {
  return resolve(g_path.load(std::memory_order_relaxed)) == Path::kSimd;
}

}  // namespace

bool simd_supported() { return __builtin_cpu_supports("avx2") != 0; }

void set_path(Path path) { g_path.store(path, std::memory_order_relaxed); }

Path active_path() {
  return resolve(g_path.load(std::memory_order_relaxed));
}

void lloyd_interleave(const double* const* cols, std::size_t n,
                      std::size_t d, std::size_t k, double* lanes) {
  constexpr std::size_t kGroup = kLloydChunk * kLloydLanes;
  for (std::size_t begin = 0; begin < n; begin += kGroup) {
    const std::size_t steps =
        lloyd_lane_steps(std::min(kGroup, n - begin), d, k);
    double* out = lanes + begin * d;
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t dim = 0; dim < d; ++dim) {
        for (std::size_t l = 0; l < kLloydLanes; ++l) {
          *out++ = cols[dim][begin + l * kLloydChunk + t];
        }
      }
    }
  }
}

void lloyd_scatter(LloydAssignment assignment, std::size_t n, std::size_t d,
                   std::size_t k) {
  constexpr std::size_t kGroup = kLloydChunk * kLloydLanes;
  for (std::size_t begin = 0; begin < n; begin += kGroup) {
    const std::size_t steps =
        lloyd_lane_steps(std::min(kGroup, n - begin), d, k);
    const std::size_t* in = assignment.lanes + begin;
    for (std::size_t l = 0; l < kLloydLanes; ++l) {
      std::size_t* out = assignment.points + begin + l * kLloydChunk;
      for (std::size_t t = 0; t < steps; ++t) {
        out[t] = in[t * kLloydLanes + l];
      }
    }
  }
}

void lloyd_lanes(LloydPoints points, std::size_t d, const double* centroids,
                 std::size_t k, std::size_t begin, std::size_t end,
                 LloydAssignment assignment, LloydPartials out) {
  if (use_simd()) {
    simd::lloyd_lanes(points, d, centroids, k, begin, end, assignment, out);
  } else {
    scalar::lloyd_lanes(points, d, centroids, k, begin, end, assignment, out);
  }
}

void min_distance_update(const double* const* xcols, std::size_t d,
                         const double* c, std::size_t begin, std::size_t end,
                         double* dist2) {
  if (use_simd()) {
    simd::min_distance_update(xcols, d, c, begin, end, dist2);
  } else {
    scalar::min_distance_update(xcols, d, c, begin, end, dist2);
  }
}

void css_lanes(const CssGroup* groups, std::size_t count, std::size_t n,
               CssLags lags, std::size_t css_from) {
  RESMON_REQUIRE(count >= 1 && count <= kCssGroups,
                 "css_lanes scores 1..kCssGroups groups per pass");
  if (use_simd()) {
    simd::css_lanes(groups, count, n, lags, css_from);
  } else {
    scalar::css_lanes(groups, count, n, lags, css_from);
  }
}

void offset_lanes(const OffsetEntry* ring, std::size_t ages, std::size_t n,
                  std::size_t d, std::size_t k, bool use_alpha,
                  std::size_t* modal, double* offset) {
  if (use_simd()) {
    simd::offset_lanes(ring, ages, n, d, k, use_alpha, modal, offset);
  } else {
    scalar::offset_lanes(ring, ages, n, d, k, use_alpha, modal, offset);
  }
}

}  // namespace resmon::kern
