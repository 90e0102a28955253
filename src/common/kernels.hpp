// Hot-path kernels with a runtime scalar/SIMD dispatch.
//
// Every kernel here exists in two compiled instances (see kernels.cpp): a
// plain scalar build and a SIMD build (`#pragma omp simd` loops compiled
// with AVX2 enabled). Both instances perform the *same* floating-point
// operations on each element in the *same* order — vectorization only runs
// independent lanes (points, chunks or coefficient vectors) side by side —
// so the two paths are bitwise identical and both match the golden
// determinism traces. The bit-compatibility contract is spelled out in
// DESIGN.md ("Memory layout & SIMD kernels") and enforced by
// tests/test_kernels.cpp.
//
// Dispatch: kAuto resolves once per process to the SIMD instance when the
// CPU supports AVX2, the scalar instance otherwise. Tests pin the path with
// set_path() to compare both instances on identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>

namespace resmon::kern {

enum class Path : std::uint8_t {
  kAuto = 0,    ///< runtime CPU detection (default)
  kScalar = 1,  ///< force the scalar instance
  kSimd = 2,    ///< force the SIMD instance (requires AVX2)
};

/// True when this CPU can run the SIMD instance (AVX2).
bool simd_supported();

/// Pin the dispatch (tests/benches only; not thread-safe vs in-flight
/// kernels — set it before spinning up worker pools).
void set_path(Path path);

/// The instance kernels currently dispatch to (never kAuto).
Path active_path();

/// Points per chunk of a Lloyd pass, and the chunks lloyd_lanes reduces
/// side by side, one per lane. Chunks depend on the point count alone,
/// never on a thread count.
inline constexpr std::size_t kLloydChunk = 256;
inline constexpr std::size_t kLloydLanes = 4;

/// The largest point dimension and cluster count with compile-time lane
/// instances of lloyd_lanes.
inline constexpr std::size_t kLloydLaneMaxD = 4;
inline constexpr std::size_t kLloydLaneMaxK = 10;

/// Steps lloyd_lanes runs a group of `count` points in lanes: when the
/// group has kLloydLanes chunks and (d, k) has a lane instance, the length
/// of its last, shortest chunk; else 0. At step t lane l holds the group's
/// point l * kLloydChunk + t.
constexpr std::size_t lloyd_lane_steps(std::size_t count, std::size_t d,
                                       std::size_t k) {
  constexpr std::size_t kLaned = (kLloydLanes - 1) * kLloydChunk;
  return count > kLaned && d >= 1 && d <= kLloydLaneMaxD &&
                 k <= kLloydLaneMaxK
             ? count - kLaned
             : 0;
}

/// Whether the lane instances for dimension d load a step's points from
/// an interleaved copy (lloyd_interleave) rather than gathering them from
/// the columns. Only d = 1 does: there the points are their own column,
/// so the interleaved copy is the only one made; at d = 4 the copy
/// measured slower than the gather (docs/PERFORMANCE.md). d = 2 and 3 were
/// not measured; they gather so that d > 1 keeps one copy of the points,
/// the SoA columns.
constexpr bool lloyd_interleaves(std::size_t d) { return d == 1; }

/// The points of a Lloyd pass: cols[dim][i] is coordinate `dim` of point
/// i, and, when lloyd_interleaves(d), `lanes` holds lloyd_interleave's
/// copy of the same points.
struct LloydPoints {
  const double* const* cols = nullptr;
  const double* lanes = nullptr;
};

/// Where a Lloyd pass writes point i's cluster: lanes[begin + t * 4 + l]
/// for the point at step t, lane l of the group at `begin`, and points[i]
/// for every other point. lloyd_scatter moves the lane entries to points.
struct LloydAssignment {
  std::size_t* points = nullptr;
  std::size_t* lanes = nullptr;
};

/// Per-chunk partials of a Lloyd pass, indexed from the pass's first
/// chunk c: inertia[c], counts[c * k + j] and sums[(c * k + j) * d + dim].
struct LloydPartials {
  double* inertia = nullptr;
  std::size_t* counts = nullptr;
  double* sums = nullptr;
};

/// Copies the laned points of a pass over n points at (d, k) into the
/// layout the lane instances load: coordinate dim of the point at step t,
/// lane l of the group at `begin` goes to
/// lanes[begin * d + (t * d + dim) * 4 + l]. `lanes` holds n * d doubles.
void lloyd_interleave(const double* const* cols, std::size_t n,
                      std::size_t d, std::size_t k, double* lanes);

/// Copies every laned point's cluster from assignment.lanes to
/// assignment.points, for a pass over n points at (d, k).
void lloyd_scatter(LloydAssignment assignment, std::size_t n, std::size_t d,
                   std::size_t k);

/// One fused Lloyd pass over the points [begin, end): at most kLloydLanes
/// chunks of kLloydChunk points, `begin` on a chunk boundary, only the last
/// chunk short. For each point i it writes the nearest of the k row-major
/// centroids to `assignment` (squared distances summed in dimension order,
/// a strict-`<` argmin in centroid order) and adds the squared distance, a
/// count and the coordinates to its chunk's partials, in point order from
/// zero. The lloyd_lane_steps(end - begin, d, k) steps run the chunks side
/// by side, one per lane of a four-double vector, each lane repeating the
/// one-chunk loop's operations; so every partial is bitwise that loop's on
/// both instances, whichever way (d, k) routes the pass.
void lloyd_lanes(LloydPoints points, std::size_t d, const double* centroids,
                 std::size_t k, std::size_t begin, std::size_t end,
                 LloydAssignment assignment, LloydPartials out);

/// k-means++ seeding distance pass over one new centroid `c` (length d):
/// dist2[i] = min(dist2[i], ||x_i - c||^2) for i in [begin, end).
void min_distance_update(const double* const* xcols, std::size_t d,
                         const double* c, std::size_t begin, std::size_t end,
                         double* dist2);

/// Coefficient vectors css_lanes scores per series, one per lane of a
/// group.
inline constexpr std::size_t kCssLanes = 4;

/// Series css_lanes scores side by side in one pass, one group of kCssLanes
/// lanes each. The recursion of one group is bound by latency (e[t] needs
/// e[t - 1]), so a second group in the same t-loop costs next to nothing;
/// docs/PERFORMANCE.md ("ARIMA refits in lockstep") has the measurement
/// that chose the count.
inline constexpr std::size_t kCssGroups = 2;

/// The lags of an ARMA lag polynomial's AR and MA sides, which every group
/// and lane of a pass shares.
struct CssLags {
  const std::size_t* ar = nullptr;
  std::size_t ar_count = 0;
  const std::size_t* ma = nullptr;
  std::size_t ma_count = 0;
};

/// One series of a css_lanes pass and the kCssLanes coefficient vectors it
/// is scored under: lane l has mean mean[l], AR coefficient
/// ar_coef[k * kCssLanes + l] for AR lag k and MA coefficient
/// ma_coef[k * kCssLanes + l] for MA lag k. The pass writes lane l's
/// residual e[t] to scratch[t * kCssLanes + l] (n * kCssLanes doubles) and
/// its CSS to css[l].
struct CssGroup {
  const double* w = nullptr;
  const double* mean = nullptr;
  const double* ar_coef = nullptr;
  const double* ma_coef = nullptr;
  double* scratch = nullptr;
  double* css = nullptr;
};

/// Conditional sum of squares (CSS) of `count` (1..kCssGroups) series of
/// length n, each under kCssLanes coefficient vectors, in one pass. Each
/// lane l of each group runs the zero-initialized ARMA residual recursion
///   e[t] = (w[t] - mean[l]) - sum_ar a * (w[t - lag] - mean[l])
///                           - sum_ma b * e[t - lag],
/// subtracting AR terms in list order, then MA terms in list order, and
/// skipping (not zero-multiplying) every term with t < lag. css[l] sums
/// e[t]^2 over t in [css_from, n) in t order. Each group count has its own
/// instances, so a pass computes exactly `count` groups; a count outside
/// 1..kCssGroups throws InvalidArgument. Lanes and groups are independent,
/// so every lane's results are bitwise a plain one-vector recursion's in
/// that operation order, on both instances, whatever runs beside it.
void css_lanes(const CssGroup* groups, std::size_t count, std::size_t n,
               CssLags lags, std::size_t css_from);

/// One step of a view's offset window: the node -> cluster assignment
/// (n entries), the stored snapshot (n x d) and the centroids (k x d),
/// both row-major.
struct OffsetEntry {
  const std::size_t* assignment = nullptr;
  const double* snapshot = nullptr;
  const double* centroids = nullptr;
};

/// The per-node terms of eq. (2) over `ages` window steps, ring[0] newest.
/// modal[i] is the cluster node i was assigned to most often (ties break
/// to the smaller index); assignments must be < k. When `offset` is
/// non-null, offset[i * d + c] is node i's eq. (12) offset relative to
/// modal[i]: from 0.0, newest step first, it adds alpha * delta with
/// delta = snapshot(i) - centroid(modal[i]) and alpha the largest value in
/// [0, 1] that keeps centroid + alpha * delta nearest to its own centroid
/// (1.0 when !use_alpha), then divides by `ages`. alpha follows the
/// textbook loop: per other centroid l in index order, dot = delta . g and
/// gap2 = g . g with g = c_l - c_j, each summed from 0.0 in dimension
/// order; alpha = min(alpha, gap2 / (2 dot)) when both are positive; then
/// clamped to [0, 1]. The modal clusters of four consecutive nodes are
/// counted side by side, one per lane, with compile-time k instances for
/// k <= 10; nodes with one modal cluster then run four side by side, with
/// compile-time (d, k) instances for d <= 4 and k <= 10. Other shapes and
/// the last n % 4 modal counts run one node at a time. Every node's result
/// is bitwise the textbook loop's on both instances. The call allocates
/// its own scratch (counts, buckets, gaps): a few buffers, none per node.
void offset_lanes(const OffsetEntry* ring, std::size_t ages, std::size_t n,
                  std::size_t d, std::size_t k, bool use_alpha,
                  std::size_t* modal, double* offset);

}  // namespace resmon::kern
