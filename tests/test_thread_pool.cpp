#include "common/thread_pool.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace resmon {
namespace {

TEST(ThreadPool, ConstructsAndTearsDownAtVariousSizes) {
  for (const std::size_t size : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
  }
  // 0 = hardware concurrency, at least one worker.
  ThreadPool automatic(0);
  EXPECT_GE(automatic.size(), 1u);
}

TEST(ThreadPool, TeardownWithIdleWorkersDoesNotHang) {
  // Construct and immediately destroy, repeatedly: workers blocked on the
  // condition variable must all wake and join.
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(3);
  }
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> visits(kN);
  pool.parallel_for(kN, 7,
                    [&](std::size_t, std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        visits[i].fetch_add(1);
                      }
                    });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForChunkPartitionIsFixed) {
  // The partition depends only on (n, grain): chunk c covers
  // [c * grain, min(n, (c+1) * grain)), regardless of worker count.
  for (const std::size_t workers : {1u, 3u, 8u}) {
    ThreadPool pool(workers);
    const std::size_t n = 103;
    const std::size_t grain = 10;
    const std::size_t chunks = ThreadPool::num_chunks(n, grain);
    ASSERT_EQ(chunks, 11u);
    std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
    pool.parallel_for(n, grain,
                      [&](std::size_t c, std::size_t begin, std::size_t end) {
                        ranges[c] = {begin, end};
                      });
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_EQ(ranges[c].first, c * grain);
      EXPECT_EQ(ranges[c].second, std::min(n, (c + 1) * grain));
    }
  }
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(100, 5,
                        [&](std::size_t c, std::size_t, std::size_t) {
                          if (c == 7) throw std::runtime_error("chunk 7");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // The loop still ran to completion (all other chunks executed) before
  // rethrowing, so the pool is reusable afterwards.
  EXPECT_EQ(completed.load(), 19);
  std::atomic<int> after{0};
  pool.parallel_for(10, 1, [&](std::size_t, std::size_t, std::size_t) {
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, NestedParallelForIsDeadlockFreeAndCoversAllIndices) {
  // Outer tasks occupy workers and issue inner parallel_for calls; the
  // caller of each inner loop participates in its own chunks, so the
  // nesting cannot deadlock even on a pool with a single worker.
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    constexpr std::size_t kOuter = 6;
    constexpr std::size_t kInner = 200;
    std::vector<std::atomic<int>> visits(kOuter * kInner);
    pool.parallel_for(
        kOuter, 1, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t o = begin; o < end; ++o) {
            pool.parallel_for(
                kInner, 16,
                [&, o](std::size_t, std::size_t ib, std::size_t ie) {
                  for (std::size_t i = ib; i < ie; ++i) {
                    visits[o * kInner + i].fetch_add(1);
                  }
                });
          }
        });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "workers " << workers << " slot " << i;
    }
  }
}

TEST(RunChunked, NullPoolRunsInlineInChunkOrder) {
  std::vector<std::size_t> order;
  run_chunked(nullptr, 25, 10,
              [&](std::size_t c, std::size_t begin, std::size_t end) {
                order.push_back(c);
                EXPECT_EQ(begin, c * 10);
                EXPECT_EQ(end, std::min<std::size_t>(25, (c + 1) * 10));
              });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RunChunked, PerChunkReductionIsIdenticalSerialAndPooled) {
  // The determinism contract: per-chunk partials merged in chunk order give
  // bit-identical sums with and without a pool.
  constexpr std::size_t kN = 10000;
  std::vector<double> values(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 3);
  }
  auto chunked_sum = [&](ThreadPool* pool) {
    const std::size_t chunks = ThreadPool::num_chunks(kN, 64);
    std::vector<double> partial(chunks, 0.0);
    run_chunked(pool, kN, 64,
                [&](std::size_t c, std::size_t begin, std::size_t end) {
                  double local = 0.0;
                  for (std::size_t i = begin; i < end; ++i) local += values[i];
                  partial[c] = local;
                });
    double total = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) total += partial[c];
    return total;
  };
  const double serial = chunked_sum(nullptr);
  ThreadPool two(2);
  ThreadPool eight(8);
  EXPECT_EQ(serial, chunked_sum(&two));
  EXPECT_EQ(serial, chunked_sum(&eight));
}

TEST(ThreadPool, NumChunksHandlesEdgeCases) {
  EXPECT_EQ(ThreadPool::num_chunks(0, 10), 0u);
  EXPECT_EQ(ThreadPool::num_chunks(1, 10), 1u);
  EXPECT_EQ(ThreadPool::num_chunks(10, 10), 1u);
  EXPECT_EQ(ThreadPool::num_chunks(11, 10), 2u);
  EXPECT_EQ(ThreadPool::num_chunks(5, 0), 5u);  // grain 0 treated as 1
}

TEST(ThreadPool, ParallelForWithZeroTripCountIsNoOp) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    ran = true;
  });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace resmon
