#include "exec/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
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

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ && drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelForDynamic(size_t n,
                                    const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Chunked submission: one runner per available thread (capped at n), each
  // claiming indices from the shared cursor until the range is exhausted.
  // `body` is captured by reference — safe because this function does not
  // return until every runner has finished.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<size_t> next{0};
    size_t live_runners = 0;
  };
  auto st = std::make_shared<State>();
  const size_t runners = std::min(n, concurrency());
  st->live_runners = runners - 1;  // the caller's inline runner isn't queued
  const auto run = [st, n, &body] {
    for (size_t i;
         (i = st->next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      body(i);
    }
  };
  for (size_t r = 1; r < runners; ++r) {
    Submit([st, run] {
      run();
      std::lock_guard<std::mutex> lk(st->mu);
      if (--st->live_runners == 0) st->cv.notify_all();
    });
  }
  run();  // caller participates in the claiming loop
  // Help drain the shared queue (our runners, or overlapping calls') while
  // waiting for the queued runners to finish.
  while (RunOneTask()) {
  }
  std::unique_lock<std::mutex> lk(st->mu);
  st->cv.wait(lk, [&st] { return st->live_runners == 0; });
}

}  // namespace accl::exec
