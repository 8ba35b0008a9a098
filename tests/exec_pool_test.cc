#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
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

TEST(ThreadPool, JoinWaitsForARunnerThatFinishesLast) {
  // A worker holds an index well past the caller's last one, so the
  // caller's join waits on it: for longer than ThreadPool::kSpinWindow
  // (the join parks) in odd repetitions, within it in even ones. Every
  // index runs exactly once, and no runner touches the caller's stack job
  // after the join returns (the sanitizer builds check the second).
  exec::ThreadPool pool(2);
  const auto caller = std::this_thread::get_id();
  constexpr size_t kIndices = 16;
  int late_runs = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const auto hold = rep % 2 ? 4 * exec::ThreadPool::kSpinWindow
                              : std::chrono::microseconds(5);
    std::vector<std::atomic<int>> hit(kIndices);
    std::atomic<bool> worker_in{false}, caller_waited{false}, late{false};
    pool.ParallelForDynamic(kIndices, [&](size_t i) {
      if (std::this_thread::get_id() == caller) {
        // Let a worker claim a run before the caller takes the rest.
        if (!caller_waited.exchange(true)) {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
          while (!worker_in.load() && std::chrono::steady_clock::now() < until) {
            std::this_thread::yield();
          }
        }
      } else if (!worker_in.exchange(true)) {
        std::this_thread::sleep_for(hold);
        late.store(true);
      }
      hit[i].fetch_add(1);
    });
    for (size_t i = 0; i < kIndices; ++i) {
      ASSERT_EQ(hit[i].load(), 1) << "repetition " << rep << ", index " << i;
    }
    if (late.load()) ++late_runs;
  }
  EXPECT_GT(late_runs, 0);
}

double ProcessCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

TEST(ThreadPool, IdlePoolParksAfterTheSpinWindow) {
  // Workers that ran a fork-join runner spin for kSpinWindow and then
  // park, so an idle pool costs no CPU: over a 50 ms sleep the process
  // uses a few ms at most, where three workers that never parked would
  // use up to 150 ms.
  exec::ThreadPool pool(3);
  std::atomic<int> ran{0};
  // Indices long enough that every worker claims one.
  pool.ParallelForDynamic(16, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ran.fetch_add(1);
  });
  ASSERT_EQ(ran.load(), 16);
  const double before = ProcessCpuMs();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(ProcessCpuMs() - before, 5.0);
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
