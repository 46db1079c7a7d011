#include "msys/engine/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "msys/obs/metrics.hpp"

namespace msys::engine {

namespace {

/// Queue-depth instrumentation, sampled at every submit and pop (handles
/// resolved once; one relaxed store per sample afterwards).
struct PoolMetrics {
  obs::Counter& submitted = obs::counter("engine.pool.jobs_submitted");
  // Every refusal is counted here, once; run_indexed then runs the refused
  // index inline.
  obs::Counter& rejected = obs::counter("engine.pool.submit_refused");
  obs::Counter& completed = obs::counter("engine.pool.jobs_completed");
  obs::Gauge& queue_depth = obs::gauge("engine.pool.queue_depth");
  obs::Gauge& queue_depth_peak = obs::gauge("engine.pool.queue_depth_peak");

  static PoolMetrics& get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned n_threads) {
  const unsigned n = std::max(1u, n_threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::submit(std::function<void()> job) {
  PoolMetrics& metrics = PoolMetrics::get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      metrics.rejected.add();
      return false;
    }
    queue_.push_back(std::move(job));
    const std::size_t depth = queue_.size();
    depth_peak_ = std::max(depth_peak_, depth);
    metrics.queue_depth.set(static_cast<std::int64_t>(depth));
    metrics.queue_depth_peak.update_max(static_cast<std::int64_t>(depth));
  }
  metrics.submitted.add();
  work_cv_.notify_one();
  return true;
}

std::size_t ThreadPool::queue_depth_peak() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_peak_;
}

unsigned ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::worker_loop() {
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain-before-stop: shutdown only wins once the queue is empty.
      if (queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      metrics.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
    job();
    metrics.completed.add();
  }
}

void run_indexed(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(n);
  const auto run_one = [&fn, &errors](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    // A per-call latch, not a pool-wide wait: other callers' jobs on a
    // shared pool are none of this call's business.
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t remaining = n;
    const auto finish_one = [&mu, &done_cv, &remaining] {
      // Notify under the lock: the waiter may destroy `done_cv` as soon as
      // it sees remaining == 0, which it can only do once this thread has
      // released `mu`, i.e. after notify_all returned.
      const std::lock_guard<std::mutex> lock(mu);
      if (--remaining == 0) done_cv.notify_all();
    };
    for (std::size_t i = 0; i < n; ++i) {
      const bool accepted = pool->submit([&run_one, &finish_one, i] {
        run_one(i);
        finish_one();
      });
      if (!accepted) {
        run_one(i);
        finish_one();
      }
    }
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&remaining] { return remaining == 0; });
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace msys::engine
