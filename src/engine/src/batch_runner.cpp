#include "msys/engine/batch_runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <sstream>

#include "msys/common/error.hpp"
#include "msys/obs/metrics.hpp"
#include "msys/obs/trace.hpp"

namespace msys::engine {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::string BatchStats::summary() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  out << jobs << " jobs in " << wall_ms << "ms: " << cache_hits << " hits ("
      << avg_hit_ms() << "ms avg), " << cache_misses << " compiles (" << avg_miss_ms()
      << "ms avg), " << infeasible << " infeasible";
  if (inflight_wait_ms_total > 0.0) {
    out << ", " << inflight_wait_ms_total << "ms coalesced wait";
  }
  if (disk_hits > 0) out << ", " << disk_hits << " from store";
  if (timeouts > 0) out << ", " << timeouts << " timed out";
  if (deadline_missed > 0) out << ", " << deadline_missed << " missed deadline";
  if (cancelled > 0) out << ", " << cancelled << " cancelled";
  if (retries > 0) out << ", " << retries << " retries";
  if (store_faults > 0) out << ", " << store_faults << " store faults";
  return out.str();
}

std::vector<JobResult> BatchRunner::run(const std::vector<Job>& jobs,
                                        const RunOptions& options, BatchStats* stats) {
  MSYS_TRACE_SPAN(span, "engine.batch", "engine");
  static obs::Counter& timeouts_counter = obs::counter("engine.jobs.timeouts");
  static obs::Counter& missed_counter = obs::counter("engine.jobs.deadline_missed");
  static obs::Counter& cancelled_counter = obs::counter("engine.jobs.cancelled");
  static obs::Counter& retry_counter = obs::counter("engine.retry.attempts");
  const auto batch_start = std::chrono::steady_clock::now();
  std::vector<JobResult> results(jobs.size());
  std::vector<double> latency_ms(jobs.size(), 0.0);
  std::vector<std::uint32_t> retry_attempts(jobs.size(), 0);

  auto run_one = [this, &jobs, &results, &latency_ms, &retry_attempts,
                  &options](std::size_t i) {
    const auto job_start = std::chrono::steady_clock::now();
    const Job& job = jobs[i];
    JobResult& out = results[i];
    out.key = cache_key(job);
    // One attempt per deadline budget: a fresh attempt (and fresh token)
    // for each retry, so the Nth retry is not born already expired.
    // Batch-wide cancellation is checked between attempts and stops them —
    // only a *per-job* deadline earns another try.
    const int budget = 1 + std::max(options.retries, 0);
    for (int attempt = 0; attempt < budget; ++attempt) {
      if (attempt > 0) retry_attempts[i] = static_cast<std::uint32_t>(attempt);
      if (options.cancel.cancelled()) {
        out.result = make_cancelled_result(job, options.cancel.cause());
        out.tier = CacheTier::kCompute;
        break;
      }
      CancelToken token = options.job_deadline.count() > 0
                              ? options.cancel.with_timeout(options.job_deadline)
                              : options.cancel;
      if (cache_ != nullptr) {
        std::uint64_t wait_ns = 0;
        out.result = cache_->get_or_compile(job, &out.cache_hit, token, &out.tier,
                                            &out.store_degraded, &wait_ns);
        // Accumulated, not assigned: a retried attempt may wait again.
        out.inflight_wait_ms += static_cast<double>(wait_ns) / 1e6;
      } else {
        out.result = compile_job(job, token);
        out.tier = CacheTier::kCompute;
      }
      if (out.result == nullptr) {
        // Waiter cut loose mid-wait: synthesize the structured result.
        out.result = make_cancelled_result(job, token.cause());
        out.cache_hit = false;
        out.tier = CacheTier::kCompute;
      }
      if (!out.result->outcome.cancelled()) break;
      // A deadline spent on *this* attempt: retry only if that is what
      // fired (not the batch-wide cancel, which the loop head re-checks).
    }
    latency_ms[i] = ms_since(job_start);
  };

  run_indexed(pool_, jobs.size(), run_one);

  std::size_t batch_timeouts = 0;
  std::size_t batch_cancelled = 0;
  std::size_t batch_retries = 0;
  std::size_t batch_missed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (results[i].cancelled()) {
      if (results[i].result->outcome.cancel_cause == CancelCause::kDeadline) {
        ++batch_timeouts;
        ++batch_missed;
      } else {
        ++batch_cancelled;
      }
    }
    // Each retry attempt exists only because the previous attempt blew its
    // per-job deadline, so retries count as misses even when the job
    // eventually succeeded.
    batch_missed += retry_attempts[i];
    batch_retries += retry_attempts[i];
  }
  timeouts_counter.add(batch_timeouts);
  missed_counter.add(batch_missed);
  cancelled_counter.add(batch_cancelled);
  retry_counter.add(batch_retries);

  if (stats != nullptr) {
    *stats = BatchStats{};
    stats->jobs = jobs.size();
    stats->wall_ms = ms_since(batch_start);
    stats->timeouts = batch_timeouts;
    stats->deadline_missed = batch_missed;
    stats->cancelled = batch_cancelled;
    stats->retries = batch_retries;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (results[i].cache_hit) {
        ++stats->cache_hits;
        stats->hit_latency_ms_total += latency_ms[i];
      } else {
        ++stats->cache_misses;
        // Charge the miss only for its own work; blocked-behind-the-winner
        // time is tracked in its own bucket (see BatchStats).
        const double wait = results[i].inflight_wait_ms;
        stats->miss_latency_ms_total += std::max(latency_ms[i] - wait, 0.0);
        stats->inflight_wait_ms_total += wait;
      }
      if (results[i].tier == CacheTier::kDisk) ++stats->disk_hits;
      if (results[i].store_degraded) ++stats->store_faults;
      if (!results[i].feasible()) ++stats->infeasible;
    }
  }
  if (span.active()) {
    span.add_arg(obs::arg("jobs", static_cast<std::uint64_t>(jobs.size())));
  }
  return results;
}

}  // namespace msys::engine
