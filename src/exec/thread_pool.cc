#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

namespace accl::exec {

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
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Workers exit only once the queue is empty, so every submitted task ran.
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
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
  for (;;) {
    cv_.wait(lk, [this] {
      return stop_ || jobs_ != nullptr || !queue_.empty();
    });
    // Fork-join runners first: a caller is blocked on them.
    if (Job* job = jobs_) {
      if (--job->open == 0) jobs_ = job->next_job;
      ++job->live;
      lk.unlock();
      RunIndices(job);
      lk.lock();
      // The caller may return, and `job` die, once live reaches 0 and the
      // lock is released; `joined_` belongs to the pool, not to the job.
      if (--job->live == 0) joined_.notify_all();
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
  const size_t slots = job.open;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job.next_job = jobs_;
    jobs_ = &job;
  }
  for (size_t r = 0; r < slots; ++r) cv_.notify_one();
  RunIndices(&job);  // the caller claims indices too
  // Every index is claimed now. Withdraw the slots no worker took (a late
  // runner would find nothing to do), then wait for the runners that did.
  std::unique_lock<std::mutex> lk(mu_);
  if (job.open > 0) {
    Job** link = &jobs_;
    while (*link != &job) link = &(*link)->next_job;
    *link = job.next_job;
    job.open = 0;
  }
  joined_.wait(lk, [&job] { return job.live == 0; });
}

}  // namespace accl::exec
