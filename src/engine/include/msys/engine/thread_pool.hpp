// Fixed-size worker pool with an MPMC job queue — the execution substrate
// of the batch engine — and run_indexed, the one fan-out every caller uses
// to spread indexed work across it.
//
// Design points (deliberately boring, in the best way):
//   * submit() may be called from any thread, including from inside a
//     running job (workers never block on the queue lock while executing).
//   * The destructor drains every *accepted* job, then joins; nothing
//     accepted is silently dropped.  Once shutdown has begun, submit()
//     rejects new work by returning false instead of throwing: a job that
//     re-submits while the destructor drains gets a well-defined refusal,
//     not an exception inside a worker (which would std::terminate).
//     Accept-and-drain was rejected deliberately — a self-perpetuating job
//     chain would then block shutdown forever.
//   * Jobs must not throw — the pool has no channel to report an
//     exception, so a throwing job terminates (callers wrap fallible work,
//     e.g. engine::compile_job converts everything to data).
//
// Determinism contract: the pool makes no ordering promises.  run_indexed
// hands each job its input position, so callers that need deterministic
// output (report::run_all, BatchRunner, the fuzz campaign, the annealer's
// islands) write results by index and fold serially afterwards.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace msys::engine {

class ThreadPool {
 public:
  /// Spawns `n_threads` workers (clamped to >= 1).
  explicit ThreadPool(unsigned n_threads);

  /// Drains the queue, then stops and joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one job and returns true.  After shutdown began (the
  /// destructor is draining), the job is NOT enqueued and submit returns
  /// false — never throws, so re-entrant submits from draining workers are
  /// safe.  Callers that require acceptance (a live pool they own) may
  /// assert on the result.  (Not [[nodiscard]]: fire-and-forget on a pool
  /// the caller owns and keeps alive is sound — acceptance is guaranteed
  /// before ~ThreadPool starts.)
  bool submit(std::function<void()> job);

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Deepest the queue has been over this pool's lifetime (an admission-
  /// control signal: how far submission outran the workers).  The global
  /// `engine.pool.queue_depth_peak` gauge aggregates across pools; this
  /// accessor scopes it to one instance, e.g. one bench row.
  [[nodiscard]] std::size_t queue_depth_peak() const;

  /// Best-effort hardware thread count (>= 1 even when unknown).
  [[nodiscard]] static unsigned hardware_threads();

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for jobs
  std::deque<std::function<void()>> queue_;
  std::size_t depth_peak_{0};
  bool stopping_{false};
  std::vector<std::thread> workers_;
};

/// Runs fn(i) exactly once for every i in [0, n) and returns when all n
/// calls have finished.  With a null `pool` the calls run inline, in index
/// order; otherwise each index is submitted to `pool`, and an index the
/// pool refuses (it is shutting down) runs inline on the calling thread.
/// Waits only for its own n jobs, so concurrent callers can share a pool;
/// a job that fans out onto its own pool deadlocks once every worker waits
/// in such a call.  An exception thrown by fn is held until all n calls
/// finished; the lowest index's exception is then rethrown.
void run_indexed(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

}  // namespace msys::engine
