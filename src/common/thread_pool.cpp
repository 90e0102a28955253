#include "common/thread_pool.hpp"

#include <atomic>
#include <exception>

namespace resmon {

/// Shared state of one parallel_for: workers and the caller claim chunk
/// indices from `next`; the caller waits until `done` reaches `chunks`.
/// The mutex that guards `done` also publishes every chunk body's writes
/// to the waiting caller.
struct ThreadPool::ForLoop {
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  ChunkRef body;
  std::atomic<std::size_t> next{0};
  Mutex mutex;
  CondVar finished;
  std::size_t done RESMON_GUARDED_BY(mutex) = 0;
  /// First failure a chunk body threw, rethrown by parallel_for_ref.
  std::exception_ptr error RESMON_GUARDED_BY(mutex);
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  std::size_t count = num_threads;
  if (count == 0) {
    count = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  }
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this]() { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::shared_ptr<ThreadPool::ForLoop> ThreadPool::runnable_loop_locked() {
  // Retire exhausted regions (their caller is responsible for completion
  // tracking; once every chunk is claimed there is nothing left to help
  // with). The deque stays tiny — its depth is the nesting depth of
  // parallel regions — so the scan is cheap.
  while (!loops_.empty() &&
         loops_.front()->next.load(std::memory_order_relaxed) >=
             loops_.front()->chunks) {
    loops_.pop_front();
  }
  for (const std::shared_ptr<ForLoop>& loop : loops_) {
    if (loop->next.load(std::memory_order_relaxed) < loop->chunks) {
      return loop;
    }
  }
  return nullptr;
}

void ThreadPool::worker_main() {
  for (;;) {
    std::shared_ptr<ForLoop> loop;
    {
      // Explicit predicate loop (not a cv.wait lambda): thread-safety
      // analysis treats lambdas as separate functions, which would lose
      // the "mutex_ held" context the guarded reads below need.
      MutexLock lock(mutex_);
      while (!stopping_ && (loop = runnable_loop_locked()) == nullptr) {
        work_ready_.wait(mutex_);
      }
      if (loop == nullptr) return;  // stopping
    }
    drive(*loop);
  }
}

void ThreadPool::drive(ForLoop& loop) {
  for (;;) {
    const std::size_t c = loop.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= loop.chunks) return;
    const std::size_t begin = c * loop.grain;
    const std::size_t end = std::min(loop.n, begin + loop.grain);
    std::exception_ptr failure;
    try {
      loop.body.fn(loop.body.ctx, c, begin, end);
    } catch (...) {
      failure = std::current_exception();
    }
    bool all_done;
    {
      MutexLock lock(loop.mutex);
      if (failure && !loop.error) loop.error = failure;
      all_done = ++loop.done == loop.chunks;
    }
    if (all_done) loop.finished.notify_all();
  }
}

void ThreadPool::parallel_for_ref(std::size_t n, std::size_t grain,
                                  ChunkRef body) {
  if (n == 0) return;
  const std::size_t g = grain == 0 ? 1 : grain;
  const std::size_t chunks = num_chunks(n, g);

  // A single chunk (or no workers to share with) runs inline: no
  // descriptor, no locking, no wakeups. This is what makes a work-size
  // threshold in callers effective — regions too small to split cost
  // nothing beyond the body itself.
  if (chunks == 1 || workers_.empty()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      body.fn(body.ctx, c, c * g, std::min(n, c * g + g));
    }
    return;
  }

  auto loop = std::make_shared<ForLoop>();
  loop->n = n;
  loop->grain = g;
  loop->chunks = chunks;
  loop->body = body;
  {
    MutexLock lock(mutex_);
    loops_.push_back(loop);
  }
  // chunks - 1 helpers at most can contribute; the caller always takes at
  // least one chunk itself.
  if (chunks > 2 && workers_.size() > 1) {
    work_ready_.notify_all();
  } else {
    work_ready_.notify_one();
  }
  drive(*loop);
  std::exception_ptr error;
  {
    MutexLock lock(loop->mutex);
    while (loop->done != loop->chunks) loop->finished.wait(loop->mutex);
    error = loop->error;
  }
  {
    MutexLock lock(mutex_);
    for (auto it = loops_.begin(); it != loops_.end(); ++it) {
      if (it->get() == loop.get()) {
        loops_.erase(it);
        break;
      }
    }
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace resmon
