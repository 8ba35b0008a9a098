// Fixed-size thread-pool executor for the sharded matching subsystem.
//
// The paper's motivating SDI workload (§1) is many concurrent event streams
// matched against millions of subscriptions; one OS thread per query cannot
// saturate a modern machine. This pool is deliberately small and boring:
// long-lived workers, one locked FIFO of std::function tasks, and a blocking
// ParallelForDynamic in which the *caller participates* — it claims indices
// itself and drains tasks from the same queue while waiting, so a pool
// constructed with zero workers degrades to plain serial execution instead
// of deadlocking, and a pool of W workers gives W+1-way concurrency to the
// fork-join sections that use it (MatchBatch's execute and finalize
// phases). Submit serves fire-and-forget work (background checkpoints).
//
// Interplay with epoch-based reclamation (exec/epoch.h): a fan-out caller
// that reads epoch-protected state pins ONCE, before submitting, and keeps
// the guard alive across ParallelForDynamic — the workers (and any task the
// helping caller runs from an overlapping fan-out) are covered by the
// submitting caller's pin, because every task completes before that
// caller's guard is released. Workers therefore never pin epochs
// themselves, and a grace period can never deadlock on the pool:
// Synchronize() is only called with no pin held (see
// SubscriptionEngine::MaybeAutoMove), and pinned readers never block on the
// epoch publisher. Size an EpochManager's slot hint from concurrency() times
// the expected concurrent callers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace accl::exec {

/// Fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `workers` threads. 0 is valid: Submit still queues, and
  /// ParallelForDynamic runs everything on the calling thread.
  explicit ThreadPool(size_t workers);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  /// Enqueues a task. Never blocks (beyond the queue lock).
  void Submit(std::function<void()> task);

  /// Runs body(0..n-1) across the pool and the calling thread; returns when
  /// every index has completed. It enqueues min(n, concurrency()) - 1
  /// *runner* tasks that, with the caller, claim indices from a shared
  /// atomic cursor until none remain: fast indices finish early and their
  /// runner takes the rest, and per-call queue churn is O(workers), not
  /// O(n). Indices may run in any order and concurrently — bodies must
  /// write to disjoint state. Reentrant calls (from inside a body) are not
  /// supported.
  void ParallelForDynamic(size_t n, const std::function<void(size_t)>& body);

  /// Suggested shard/task width: worker threads + the caller.
  size_t concurrency() const { return workers_.size() + 1; }

 private:
  void WorkerLoop();
  /// Pops and runs one task; false when the queue was empty.
  bool RunOneTask();

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< workers: queue non-empty / stop
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace accl::exec
