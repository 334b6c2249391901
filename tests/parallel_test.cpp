// Concurrency tests for the block-parallel compression pipeline's shared
// infrastructure: util::ThreadPool fork/join semantics, cz::BufferPool
// recycling and stats, and an 8-thread hammer over ParallelCodec +
// BufferPool (labelled `concurrency`, so the TSan preset runs it:
// ctest --test-dir build-tsan -L concurrency).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "compress/buffer_pool.hpp"
#include "compress/parallel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bitio {
namespace {

// ---------------------------------------------------------- thread pool ---

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  for (std::size_t n : {0u, 1u, 7u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, 4, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
  }
}

TEST(ThreadPool, ZeroWorkersDegradesToSerial) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::size_t sum = 0;
  // Serial inline loop: unsynchronized accumulation is safe.
  pool.parallel_for(100, 8, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, RethrowsFirstException) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64, 3,
                        [&](std::size_t i) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i == 13) throw UsageError("boom");
                        }),
      UsageError);
  // Remaining indices still run (blocks are independent).
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ConcurrentCallersShareThePool) {
  util::ThreadPool pool(4);
  constexpr int kCallers = 4;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round)
        pool.parallel_for(50, 3, [&](std::size_t) {
          total.fetch_add(1, std::memory_order_relaxed);
        });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), std::size_t(kCallers) * 20 * 50);
}

// ---------------------------------------------------------- buffer pool ---

TEST(BufferPool, RecyclesByCapacityClass) {
  cz::BufferPool pool;
  auto a = pool.acquire(1000);
  EXPECT_EQ(a->size(), 1000u);
  const auto* ptr = a->data();
  a.reset();
  // Same class, warm buffer back.
  auto b = pool.acquire(800);
  EXPECT_EQ(b->size(), 800u);
  EXPECT_EQ(b->data(), ptr);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.released, 1u);
}

TEST(BufferPool, AcquireReserveGivesEmptyWarmBuffer) {
  cz::BufferPool pool;
  auto a = pool.acquire_reserve(4096);
  EXPECT_EQ(a->size(), 0u);
  EXPECT_GE(a->capacity(), 4096u);
  a->insert(a->end(), 3000, std::uint8_t(7));
  a.reset();
  auto b = pool.acquire_reserve(4000);  // same 4 KiB class: warm hit
  EXPECT_EQ(b->size(), 0u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPool, GrownBuffersComeBackToTheLargerClass) {
  cz::BufferPool pool;
  auto a = pool.acquire(64);
  a->resize(std::size_t(1) << 17);  // grew while in use
  a.reset();
  auto b = pool.acquire(100000);  // served by the grown buffer's class
  EXPECT_EQ(pool.stats().hits, 1u);
  b.reset();
  pool.trim();
  auto c = pool.acquire(100000);  // trim dropped the freelists
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(BufferPool, ThrowBeforeHandOffStillReturnsTheBuffer) {
  // An acquire followed by a throw before the buffer is handed on: the
  // PooledBuffer's destructor returns it while the exception unwinds.
  cz::BufferPool pool;
  EXPECT_THROW(
      {
        auto staged = pool.acquire(4096);
        staged->front() = 1;
        throw IoError("injected before the hand-off");
      },
      IoError);
  EXPECT_EQ(pool.stats().released, 1u);
  pool.acquire(4096);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPool, MovedFromBufferReturnsNothing) {
  cz::BufferPool pool;
  auto a = pool.acquire(256);
  auto b = std::move(a);  // ownership moves; nothing returns yet
  EXPECT_EQ(pool.stats().released, 0u);
  b = pool.acquire(512);  // assignment returns the buffer b held
  EXPECT_EQ(pool.stats().released, 1u);
}

TEST(BufferPool, ZeroCapacityReleaseIgnored) {
  cz::BufferPool pool;
  auto buf = pool.acquire(256);
  auto bytes = std::move(*buf);  // the loan now holds a moved-from vector
  buf.reset();
  EXPECT_EQ(pool.stats().released, 0u);
}

TEST(BufferPool, ResetStatsKeepsWarmFreelists) {
  cz::BufferPool pool;
  pool.acquire(4096);  // the temporary returns at once: a warm freelist
  pool.reset_stats();
  EXPECT_EQ(pool.stats().hits, 0u);
  pool.acquire(4096);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
}

// --------------------------------------------------------------- hammer ---

TEST(ParallelHammer, CodecAndPoolFromEightThreads) {
  // 8 threads concurrently compress/decompress through shared ParallelCodec
  // instances (which share ThreadPool::shared() and a common BufferPool)
  // while recycling buffers through the same pool — the TSan target for the
  // whole pipeline.
  cz::BufferPool buffers;
  util::ThreadPool pool(3);
  const cz::ParallelCodec codec(cz::make_blosc_codec(4), 4, 4096, &pool,
                                &buffers);

  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(std::uint64_t(t) + 1);
      for (int round = 0; round < kRounds; ++round) {
        // Mixed sizes: multi-block, single-block, empty.
        const std::size_t n = std::size_t(rng.below(3)) == 0
                                  ? 0
                                  : 3000 + std::size_t(rng.below(30000));
        auto data = buffers.acquire(n);
        float x = float(t);
        for (std::size_t i = 0; i + 4 <= n; i += 4) {
          x += 0.01f * float(rng.normal());
          std::memcpy(&(*data)[i], &x, 4);
        }
        cz::Bytes frame;
        codec.compress_append(*data, frame);
        const cz::Bytes back = codec.decompress(frame);
        if (back != *data) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // Steady state: after the first rounds the pool serves from freelists.
  EXPECT_GT(buffers.stats().hits, 0u);
}

}  // namespace
}  // namespace bitio
