// BatchRunner: fans a vector of compilation jobs across a ThreadPool
// (engine::run_indexed) through the ScheduleCache and returns results in
// deterministic input order, whatever order the workers finished in.
//
// Per-job failure is data: an infeasible (or internally erroring) job
// yields a JobResult whose outcome carries diagnostics — one bad job never
// aborts the batch.  The same convention covers the fault-tolerance paths:
// a job whose per-job deadline expires yields a "schedule.timeout" result
// (optionally retried, RunOptions::retries), counted in BatchStats.  A job
// the pool refuses (shutdown race) runs inline on the calling thread, so
// it still gets its real result.  The runner also runs correctly
// with no cache (every job computed) and with a pool of one thread (serial
// semantics), which is how the determinism tests pin "parallel == serial".
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "msys/common/cancel.hpp"
#include "msys/engine/job.hpp"
#include "msys/engine/schedule_cache.hpp"
#include "msys/engine/thread_pool.hpp"

namespace msys::engine {

/// One job's outcome plus how the engine produced it.
struct JobResult {
  /// Never null after BatchRunner::run.
  std::shared_ptr<const CompiledResult> result;
  std::uint64_t key{0};
  bool cache_hit{false};
  /// Which tier served the result (kCompute for a fresh compile or a
  /// synthesized timeout).
  CacheTier tier{CacheTier::kCompute};
  /// True when the persistent store's read retry budget was exhausted for
  /// this job (the result was recomputed, but the store is misbehaving —
  /// a per-job signal callers surface as a structured diagnostic).
  bool store_degraded{false};
  /// Time this job spent parked behind another thread's in-flight compile
  /// (coalesced waiter).  Zero for hits and for misses that did their own
  /// work — it measures contention, not compilation.
  double inflight_wait_ms{0.0};

  [[nodiscard]] bool feasible() const { return result != nullptr && result->feasible(); }
  /// True when the job's outcome was cut short by a deadline/cancel.
  [[nodiscard]] bool cancelled() const {
    return result != nullptr && result->outcome.cancelled();
  }
};

/// Knobs for one run() call.
struct RunOptions {
  /// Batch-wide cancellation (e.g. the CLI's Ctrl-C source); per-job
  /// deadlines chain onto it.
  CancelToken cancel;
  /// Wall-clock budget per job attempt, measured from the moment a worker
  /// picks the job up; zero => no deadline.
  std::chrono::milliseconds job_deadline{0};
  /// Extra attempts for a job whose attempt was cut short by its *own*
  /// deadline (each retry gets a fresh deadline).  Batch-wide cancellation
  /// is never retried — that budget is gone.
  int retries{0};
};

/// Per-batch accounting, filled by BatchRunner::run.  Latencies are the
/// per-job wall time inside the worker (cache lookup + compile on a miss),
/// so avg_hit_ms()/avg_miss_ms() separate "served from cache" cost from
/// "had to schedule" cost for exactly this batch — unlike the global obs
/// counters, which aggregate across every concurrent batch.
struct BatchStats {
  std::size_t jobs{0};
  std::size_t cache_hits{0};
  std::size_t cache_misses{0};
  std::size_t infeasible{0};
  /// Memory misses served from the persistent store.
  std::size_t disk_hits{0};
  /// Jobs whose final result is a deadline timeout ("schedule.timeout").
  std::size_t timeouts{0};
  /// Per-attempt deadline expiries: every attempt cut short by its own
  /// job deadline counts, whether the job later succeeded on a retry or
  /// ended as a timeout.  timeouts counts final outcomes; this counts
  /// misses — the SLO signal msysc's batch summary surfaces (it used to
  /// be visible only as exit code 3).
  std::size_t deadline_missed{0};
  /// Jobs cut short by batch-wide cancellation ("schedule.cancelled").
  std::size_t cancelled{0};
  /// Deadline re-attempts actually run (RunOptions::retries).
  std::size_t retries{0};
  /// Jobs whose store read exhausted its retry budget (JobResult::
  /// store_degraded): each completed anyway, but the store is degraded.
  std::size_t store_faults{0};
  /// Wall time of the whole run() call.
  double wall_ms{0.0};
  double hit_latency_ms_total{0.0};
  /// Miss latency counts each missing job's *own* work: time a coalesced
  /// waiter spent parked behind another thread's compile is excluded here
  /// and accumulated in inflight_wait_ms_total instead.  (It used to be
  /// folded in, which inflated avg_miss_ms() under thread contention even
  /// though no extra compilation happened.)
  double miss_latency_ms_total{0.0};
  double inflight_wait_ms_total{0.0};

  [[nodiscard]] double hit_rate() const {
    return jobs == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(jobs);
  }
  [[nodiscard]] double avg_hit_ms() const {
    return cache_hits == 0 ? 0.0 : hit_latency_ms_total / static_cast<double>(cache_hits);
  }
  [[nodiscard]] double avg_miss_ms() const {
    return cache_misses == 0 ? 0.0
                             : miss_latency_ms_total / static_cast<double>(cache_misses);
  }
  /// Average blocked-behind-the-winner time per miss (0 when no waiter
  /// coalesced).
  [[nodiscard]] double avg_inflight_wait_ms() const {
    return cache_misses == 0 ? 0.0
                             : inflight_wait_ms_total / static_cast<double>(cache_misses);
  }
  [[nodiscard]] std::string summary() const;
};

class BatchRunner {
 public:
  /// `cache` may be null: every job is then computed.  Both referents must
  /// outlive the runner.
  explicit BatchRunner(ThreadPool& pool, ScheduleCache* cache = nullptr)
      : pool_(&pool), cache_(cache) {}

  /// Runs every job; results[i] always corresponds to jobs[i] and
  /// results[i].result is never null — timeouts and cancellations come
  /// back as structured per-job results.  Blocks until the
  /// whole batch finished.  Thread-safe for the caller in the sense that
  /// concurrent run() calls on one runner share the pool and cache but
  /// keep their batches separate.  `stats`, when given, receives this
  /// batch's accounting (overwritten, not accumulated).
  [[nodiscard]] std::vector<JobResult> run(const std::vector<Job>& jobs,
                                           const RunOptions& options,
                                           BatchStats* stats = nullptr);
  [[nodiscard]] std::vector<JobResult> run(const std::vector<Job>& jobs,
                                           BatchStats* stats = nullptr) {
    return run(jobs, RunOptions{}, stats);
  }

 private:
  ThreadPool* pool_;
  ScheduleCache* cache_;
};

}  // namespace msys::engine
