// Fixed-size thread-pool executor for fork-join sections: the sharded
// matching subsystem's MatchBatch (execute and finalize phases) and
// AdaptiveIndex::Execute's exploration of a query's admitted clusters and
// its reorganization scans.
//
// The paper's motivating SDI workload (§1) is many concurrent event streams
// matched against millions of subscriptions; one OS thread per query cannot
// saturate a modern machine. This pool is deliberately small and boring:
// long-lived workers, one locked FIFO of std::function tasks for Submit, and
// a blocking ParallelForDynamic in which the *caller participates* — it
// claims indices itself, so a pool constructed with zero workers degrades to
// plain serial execution instead of deadlocking, and a pool of W workers
// gives W+1-way concurrency to the fork-join sections that use it. A
// fork-join call allocates nothing: its state lives on the caller's stack,
// workers reach it through an intrusive list, and the body is called
// through a plain function pointer. Submit serves fire-and-forget work
// (background checkpoints).
//
// Spinning and parking: fork-join sections come in bursts (one per query
// or batch phase, tens of microseconds apart), so a worker that has just
// run a fork-join runner watches a publish counter for kSpinWindow,
// yielding its CPU between probes, before it parks on the condition
// variable; a job published inside that window is claimed without a
// wake-up. The caller's join likewise spins on the job's runner count for
// up to kSpinWindow before it blocks. So the pools behind MatchBatch's two
// phases and an index's exploration and slice scans spin between jobs. A
// worker that has just run a Submit task parks at once, so a pool that
// only serves Submit (the background checkpointer) never spins, and an
// idle pool of either kind costs no CPU once the window has passed.
// Yielding rather than busy-pausing keeps a spinner from holding a CPU
// that the caller, a runner or another process needs.
//
// Interplay with epoch-based reclamation (exec/epoch.h): a fan-out caller
// that reads epoch-protected state pins ONCE, before submitting, and keeps
// the guard alive across ParallelForDynamic — the workers are covered by
// the submitting caller's pin, because every runner completes before that
// caller's guard is released. Workers therefore never pin epochs
// themselves, and a grace period can never deadlock on the pool:
// Synchronize() is only called with no pin held (see
// SubscriptionEngine::MaybeAutoMove), and pinned readers never block on the
// epoch publisher. Size an EpochManager's slot hint from concurrency() times
// the expected concurrent callers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
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
  /// every index has completed. It offers min(n, concurrency()) - 1 runner
  /// slots to idle workers; each runner, and the caller, claims indices
  /// from a shared atomic cursor until none remain, so fast indices finish
  /// early and their runner takes the rest. Indices may run in any order
  /// and concurrently — bodies must write to disjoint state. Several
  /// callers may share one pool; reentrant calls (from inside a body) are
  /// not supported. `body` is called by reference, never copied, and a
  /// call allocates nothing.
  template <typename Body>
  void ParallelForDynamic(size_t n, Body&& body) {
    using B = std::remove_reference_t<Body>;
    void* b = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
    ForkJoin(n, b, [](void* f, size_t i) { (*static_cast<B*>(f))(i); });
  }

  /// Suggested shard/task width: worker threads + the caller.
  size_t concurrency() const { return workers_.size() + 1; }

  /// How long a worker that ran a fork-join runner watches for the next
  /// job, and a caller spins on its runners, before blocking.
  static constexpr std::chrono::microseconds kSpinWindow{50};

 private:
  /// One ParallelForDynamic call; lives on its caller's stack.
  struct Job {
    void* body;
    void (*call)(void*, size_t);
    size_t n;
    std::atomic<size_t> next{0};  ///< the claim cursor
    /// Claimed runners still running: raised under mu_, lowered without
    /// it. A runner touches the job no more after lowering it.
    std::atomic<size_t> live{0};
    size_t open = 0;          ///< runner slots not yet claimed (mu_)
    Job* next_job = nullptr;  ///< jobs_ link while open > 0 (mu_)
  };

  void ForkJoin(size_t n, void* body, void (*call)(void*, size_t));
  static void RunIndices(Job* job);
  void WorkerLoop();
  /// A worker has something to do: a job slot, a task or stop (mu_ held).
  bool Ready() const { return stop_ || jobs_ != nullptr || !queue_.empty(); }

  mutable std::mutex mu_;
  std::condition_variable cv_;      ///< workers: task, open job or stop
  std::condition_variable joined_;  ///< callers: a job's runner finished
  std::deque<std::function<void()>> queue_;
  Job* jobs_ = nullptr;  ///< jobs with open runner slots, newest first
  bool stop_ = false;
  size_t spinning_ = 0;  ///< workers watching published_ (mu_)
  /// Bumped (under mu_) by every job, task and stop; spinning workers
  /// watch it instead of the condition variable.
  std::atomic<uint64_t> published_{0};
  std::vector<std::thread> workers_;  ///< last: they use everything above
};

}  // namespace accl::exec
