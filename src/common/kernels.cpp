#include "common/kernels.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

// Two instances of every kernel body. The SIMD instance is compiled for
// AVX2 via the target attribute (note: *not* "avx2,fma" — fused
// multiply-add would contract `acc += diff * diff` and break bitwise
// equality with the scalar instance; this TU is additionally built with
// -ffp-contract=off as insurance). The `#pragma omp simd` annotations are
// enabled project-wide by -fopenmp-simd, which implies no OpenMP runtime.

namespace resmon::kern {

namespace scalar {
#define RESMON_KERNEL_FN
#define RESMON_KERNEL_LOOP
#include "common/kernels_impl.inc"  // NOLINT(bugprone-suspicious-include)
#undef RESMON_KERNEL_FN
#undef RESMON_KERNEL_LOOP
}  // namespace scalar

namespace simd {
#define RESMON_KERNEL_FN __attribute__((target("avx2")))
#define RESMON_KERNEL_LOOP _Pragma("omp simd")
#include "common/kernels_impl.inc"  // NOLINT(bugprone-suspicious-include)
#undef RESMON_KERNEL_FN
#undef RESMON_KERNEL_LOOP
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

void lloyd_lanes(const double* const* xcols, std::size_t d,
                 const double* centroids, std::size_t k, std::size_t begin,
                 std::size_t end, std::size_t* assignment, LloydPartials out) {
  if (use_simd()) {
    simd::lloyd_lanes(xcols, d, centroids, k, begin, end, assignment, out);
  } else {
    scalar::lloyd_lanes(xcols, d, centroids, k, begin, end, assignment, out);
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

void css_lanes(const double* w, std::size_t n, const double* mean,
               LagTerms ar, LagTerms ma, std::size_t css_from,
               double* scratch, double* css, double* resid) {
  if (use_simd()) {
    simd::css_lanes(w, n, mean, ar, ma, css_from, scratch, css, resid);
  } else {
    scalar::css_lanes(w, n, mean, ar, ma, css_from, scratch, css, resid);
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
