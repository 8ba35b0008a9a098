#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/alloc_hook.h"

// This binary counts every global operator new, so the allocation case can
// read obs::HeapAllocsNow().
ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK();

namespace accl {
namespace {

TEST(ThreadPool, DestructorDrainsSubmittedTasks) {
  std::atomic<int> ran{0};
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // ~ThreadPool joins only after the queue is empty
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ParallelForDynamicCoversEveryIndexExactlyOnce) {
  exec::ThreadPool pool(3);
  std::vector<std::atomic<int>> hit(1000);
  for (auto& h : hit) h.store(0);
  pool.ParallelForDynamic(1000, [&](size_t i) { hit[i].fetch_add(1); });
  for (size_t i = 0; i < hit.size(); ++i) {
    EXPECT_EQ(hit[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForDynamicZeroWorkersRunsOnCaller) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> ran{0};
  pool.ParallelForDynamic(64, [&](size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, ParallelForDynamicReusableAcrossManyCalls) {
  exec::ThreadPool pool(2);
  std::atomic<uint64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelForDynamic(20, [&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 1000u);
}

TEST(ThreadPool, ParallelForDynamicFromMultipleCallers) {
  // Two caller threads sharing one pool: per-call completion tracking must
  // not cross wires even when callers help drain each other's runners.
  exec::ThreadPool pool(2);
  std::atomic<uint64_t> a{0}, b{0};
  std::thread t1([&] {
    pool.ParallelForDynamic(500, [&](size_t) { a.fetch_add(1); });
  });
  std::thread t2([&] {
    pool.ParallelForDynamic(500, [&](size_t) { b.fetch_add(1); });
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 500u);
  EXPECT_EQ(b.load(), 500u);
}

TEST(ThreadPool, ParallelForDynamicSteadyStateAllocatesNothing) {
  ASSERT_TRUE(obs::HeapAllocHookInstalled());
  exec::ThreadPool pool(3);
  std::vector<uint64_t> sums(64, 0);
  uint64_t a = 1, b = 2, c = 3, d = 4;
  // Captures too large for std::function's inline buffer: a copy of the
  // body into a std::function would allocate.
  const auto body = [&sums, &a, &b, &c, &d](size_t i) {
    sums[i] += a + b + c + d + i;
  };
  pool.ParallelForDynamic(sums.size(), body);  // warm-up
  uint64_t allocs = 0;
  for (int round = 0; round < 100; ++round) {
    const uint64_t before = obs::HeapAllocsNow();
    pool.ParallelForDynamic(sums.size(), body);
    pool.ParallelForDynamic(sums.size(), [&sums, &a, &b, &c, &d](size_t i) {
      sums[i] -= a + b + c + d;
    });
    allocs += obs::HeapAllocsNow() - before;
  }
  EXPECT_EQ(allocs, 0u);
  for (size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], 10 + 101 * i) << i;
  }
}

}  // namespace
}  // namespace accl
