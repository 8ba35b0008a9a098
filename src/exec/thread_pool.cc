#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

namespace accl::exec {

namespace {

// Probes `done` until it holds or ThreadPool::kSpinWindow has passed,
// giving the CPU away between probes; returns whether it held.
template <typename Done>
bool SpinUntil(Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinWindow;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace

ThreadPool::ThreadPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    published_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Workers exit only once the queue is empty, so every submitted task ran.
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
    published_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void ThreadPool::RunIndices(Job* job) {
  for (size_t i;
       (i = job->next.fetch_add(1, std::memory_order_relaxed)) < job->n;) {
    job->call(job->body, i);
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  bool ran_job = false;
  for (;;) {
    if (ran_job && !Ready()) {
      // The next fork-join job usually follows within microseconds: watch
      // for it before parking. The publisher counts spinners and wakes
      // only as many parked workers as they leave slots for; a spinner
      // that times out re-checks Ready() under the lock before it parks,
      // so no job published meanwhile is missed.
      const uint64_t seen = published_.load(std::memory_order_relaxed);
      ++spinning_;
      lk.unlock();
      SpinUntil([&] {
        return published_.load(std::memory_order_relaxed) != seen;
      });
      lk.lock();
      --spinning_;
    }
    ran_job = false;
    cv_.wait(lk, [this] { return Ready(); });
    // Fork-join runners first: a caller is blocked on them.
    if (Job* job = jobs_) {
      if (--job->open == 0) jobs_ = job->next_job;
      job->live.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      RunIndices(job);
      // The caller may return, and `job` die, as soon as live reaches 0;
      // `joined_` belongs to the pool, not to the job.
      const bool last =
          job->live.fetch_sub(1, std::memory_order_acq_rel) == 1;
      lk.lock();
      if (last) joined_.notify_all();
      ran_job = true;
      continue;
    }
    if (queue_.empty()) return;  // stop_ && drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lk.unlock();
    task();
    lk.lock();
  }
}

void ThreadPool::ForkJoin(size_t n, void* body,
                          void (*call)(void*, size_t)) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) call(body, i);
    return;
  }
  Job job;
  job.body = body;
  job.call = call;
  job.n = n;
  job.open = std::min(n, concurrency()) - 1;  // the caller runs inline
  size_t wake = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job.next_job = jobs_;
    jobs_ = &job;
    published_.fetch_add(1, std::memory_order_relaxed);
    // Spinning workers see the publish themselves.
    wake = job.open > spinning_ ? job.open - spinning_ : 0;
  }
  for (size_t r = 0; r < wake; ++r) cv_.notify_one();
  RunIndices(&job);  // the caller claims indices too
  // Every index is claimed now. Withdraw the slots no worker took (a late
  // runner would find nothing to do), then wait for the runners that did.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job.open > 0) {
      Job** link = &jobs_;
      while (*link != &job) link = &(*link)->next_job;
      *link = job.next_job;
      job.open = 0;
    }
  }
  const auto joined = [&job] {
    return job.live.load(std::memory_order_acquire) == 0;
  };
  if (SpinUntil(joined)) return;
  std::unique_lock<std::mutex> lk(mu_);
  joined_.wait(lk, joined);
}

}  // namespace accl::exec
