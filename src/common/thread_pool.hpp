// Fixed-size thread pool with a determinism-preserving parallel_for.
//
// Parallelism in resmon must never change results: the pipeline guarantees
// bit-identical outputs at every thread count. parallel_for therefore uses
// a chunk partition that depends only on the trip count and the grain —
// never on how many workers exist — chunks write disjoint state, and
// callers merge per-chunk partials in chunk order. Which thread executes a
// chunk is unspecified; what is computed is not.
//
// The calling thread participates in chunk execution, so a parallel_for
// issued from inside a pool task (nested parallelism) always makes
// progress even when every worker is busy — there is no deadlock by
// resource exhaustion.
//
// Dispatch cost is kept off the hot path: a parallel region publishes ONE
// loop descriptor (workers claim chunks from it with a relaxed fetch_add)
// instead of enqueuing one heap-allocated closure per helper, the body is
// passed as a non-owning function ref (no std::function allocation), and a
// single-chunk region runs inline with no locking at all. See
// docs/PERFORMANCE.md for the anti-scaling history this fixed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace resmon {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency()
  /// (at least 1). The destructor joins them.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Non-owning reference to a chunk body. parallel_for blocks until every
  /// chunk has run, so the referenced callable safely lives on the caller's
  /// stack — no ownership, no allocation.
  struct ChunkRef {
    const void* ctx = nullptr;
    void (*fn)(const void* ctx, std::size_t chunk, std::size_t begin,
               std::size_t end) = nullptr;
  };

  /// Execute body(chunk, begin, end) over every chunk of [0, n) and wait
  /// for all of them. The partition is fixed by (n, grain); bodies must
  /// write disjoint state (reductions go into per-chunk slots, merged by
  /// the caller in chunk order). The first exception a body throws is
  /// rethrown here after all chunks finish.
  template <typename F>
  void parallel_for(std::size_t n, std::size_t grain, const F& body) {
    parallel_for_ref(
        n, grain,
        ChunkRef{&body, [](const void* ctx, std::size_t chunk,
                           std::size_t begin, std::size_t end) {
          (*static_cast<const F*>(ctx))(chunk, begin, end);
        }});
  }

  void parallel_for_ref(std::size_t n, std::size_t grain, ChunkRef body);

  /// Number of chunks parallel_for uses for a given trip count and grain.
  static std::size_t num_chunks(std::size_t n, std::size_t grain) {
    const std::size_t g = grain == 0 ? 1 : grain;
    return (n + g - 1) / g;
  }

 private:
  struct ForLoop;

  static void drive(ForLoop& loop);
  /// First published loop that still has unclaimed chunks; also retires
  /// exhausted loops from the front.
  std::shared_ptr<ForLoop> runnable_loop_locked() RESMON_REQUIRES(mutex_);
  void worker_main();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_ready_;
  /// Active parallel regions, newest last. Workers claim chunks directly
  /// from these descriptors; one push + wakeup per region replaces the old
  /// per-helper closure enqueue.
  std::deque<std::shared_ptr<ForLoop>> loops_ RESMON_GUARDED_BY(mutex_);
  bool stopping_ RESMON_GUARDED_BY(mutex_) = false;
};

/// Run `body` over the same fixed chunk partition parallel_for would use:
/// on the pool when one is given, serially in chunk order otherwise. Serial
/// and pooled execution perform identical floating-point work, so callers
/// that merge per-chunk partials in chunk order get bit-identical results
/// at every thread count (including the no-pool serial path).
template <typename F>
void run_chunked(ThreadPool* pool, std::size_t n, std::size_t grain,
                 const F& body) {
  if (n == 0) return;
  if (pool != nullptr) {
    pool->parallel_for(n, grain, body);
    return;
  }
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = ThreadPool::num_chunks(n, g);
  for (std::size_t c = 0; c < chunks; ++c) {
    body(c, c * g, std::min(n, c * g + g));
  }
}

}  // namespace resmon
