// Engine fault tolerance: per-job deadlines and cancellation as
// structured data, the single-flight waiter/winner split under timeout,
// the persistent store tier (cold save, warm disk hit, corruption
// quarantine), and batches that outlive their pool's shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "msys/common/fault_injector.hpp"
#include "msys/engine/batch_runner.hpp"
#include "msys/engine/result_codec.hpp"
#include "msys/engine/schedule_cache.hpp"
#include "msys/engine/thread_pool.hpp"
#include "msys/store/disk_store.hpp"
#include "testing/apps.hpp"

namespace msys::engine {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

Job retention_job(std::uint32_t iterations = 6) {
  testing::RetentionApp made = testing::RetentionApp::make(iterations);
  std::vector<std::vector<KernelId>> partition;
  for (const model::Cluster& c : made.sched.clusters()) partition.push_back(c.kernels);
  Job job;
  job.input =
      make_input(std::move(*made.app), std::move(partition), testing::test_cfg());
  job.kind = SchedulerKind::kFallback;
  return job;
}

fs::path scratch_dir() {
  const fs::path dir =
      fs::temp_directory_path() / "msys_engine_deadline_test" /
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::shared_ptr<store::DiskScheduleStore> open_store(const fs::path& dir) {
  store::StoreConfig config;
  config.dir = dir.string();
  std::string error;
  std::shared_ptr<store::DiskScheduleStore> disk =
      store::DiskScheduleStore::open(config, &error);
  EXPECT_NE(disk, nullptr) << error;
  return disk;
}

class EngineFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::global().disarm(); }
};

TEST_F(EngineFaultTest, PreCancelledTokenYieldsStructuredTimeoutAndIsNotCached) {
  ScheduleCache cache;
  const Job job = retention_job();
  CancelSource source;
  source.request_cancel();

  bool hit = true;
  const auto result = cache.get_or_compile(job, &hit, source.token());
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(result->outcome.cancelled());
  EXPECT_FALSE(result->feasible());
  EXPECT_EQ(cache.stats().entries, 0u);  // the key stays retryable

  // The same key compiles cleanly once the pressure is off.
  const auto retried = cache.get_or_compile(job, &hit);
  ASSERT_NE(retried, nullptr);
  EXPECT_TRUE(retried->feasible());
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(EngineFaultTest, StalledCompileExpiresItsDeadlineIntoBatchTimeouts) {
  FaultInjector::global().arm(11);
  FaultInjector::global().set_site("engine.compile.stall", {1, 1, 100});

  ThreadPool pool(2);
  ScheduleCache cache;
  BatchRunner runner(pool, &cache);
  RunOptions options;
  options.job_deadline = 20ms;
  BatchStats stats;
  const std::vector<Job> jobs{retention_job()};
  const std::vector<JobResult> results = runner.run(jobs, options, &stats);

  ASSERT_EQ(results.size(), 1u);
  ASSERT_NE(results[0].result, nullptr);
  EXPECT_TRUE(results[0].cancelled());
  EXPECT_EQ(results[0].result->outcome.cancel_cause, CancelCause::kDeadline);
  EXPECT_EQ(stats.timeouts, 1u);
  // No retries configured: the one expired attempt is both the final
  // timeout and the only missed deadline.
  EXPECT_EQ(stats.deadline_missed, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
  // The structured diagnostic names the timeout, not an internal error.
  bool saw_timeout_code = false;
  for (const Diagnostic& d : results[0].result->outcome.diagnostics) {
    if (d.code == "schedule.timeout") saw_timeout_code = true;
    EXPECT_NE(d.code, "schedule.internal");
  }
  EXPECT_TRUE(saw_timeout_code);
}

TEST_F(EngineFaultTest, RetriedDeadlineCountsAsMissedEvenWhenTheJobSucceeds) {
  // Rate 1/2: the injector is a pure hash of (seed, site, occurrence), so
  // with this seed the first attempt's draw fires and a retry draw does
  // not — deterministic, not flaky.  The job ends feasible, yet the
  // expired attempt must still show up in deadline_missed (the SLO
  // signal), while timeouts counts only *final* timeout outcomes.
  FaultInjector::global().arm(2);
  FaultInjector::global().set_site("engine.compile.stall", {1, 2, 100});

  ThreadPool pool(1);
  BatchRunner runner(pool, nullptr);
  RunOptions options;
  options.job_deadline = 20ms;
  options.retries = 3;
  BatchStats stats;
  const std::vector<Job> jobs{retention_job()};
  const std::vector<JobResult> results = runner.run(jobs, options, &stats);

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].feasible());
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.deadline_missed, stats.retries);
  EXPECT_NE(stats.summary().find("missed deadline"), std::string::npos);
}

TEST_F(EngineFaultTest, BatchWideCancellationIsCountedSeparatelyFromTimeouts) {
  ThreadPool pool(2);
  BatchRunner runner(pool, nullptr);
  CancelSource source;
  source.request_cancel();  // cancelled before the batch even starts
  RunOptions options;
  options.cancel = source.token();
  BatchStats stats;
  const std::vector<Job> jobs{retention_job(), retention_job(7)};
  const std::vector<JobResult> results = runner.run(jobs, options, &stats);
  ASSERT_EQ(results.size(), 2u);
  for (const JobResult& r : results) {
    ASSERT_NE(r.result, nullptr);
    EXPECT_TRUE(r.cancelled());
    EXPECT_EQ(r.result->outcome.cancel_cause, CancelCause::kCancelled);
  }
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.timeouts, 0u);
}

TEST_F(EngineFaultTest, WaiterTimesOutWhileTheWinnerStillCompletesAndCaches) {
  ScheduleCache cache;
  const std::uint64_t key = 0x5eedu;

  // The winner's compute blocks on a latch the test controls, so the
  // waiter's deadline deterministically fires mid-wait.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  const std::shared_ptr<const CompiledResult> computed = compile_job(retention_job());
  ASSERT_NE(computed, nullptr);

  std::thread winner([&] {
    const auto result = cache.get_or_compile(key, [&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
      return std::shared_ptr<const CompiledResult>(computed);
    });
    EXPECT_EQ(result.get(), computed.get());
  });

  // Give the winner time to register the in-flight entry, then join the
  // same key with a short deadline: the waiter must cut loose (nullptr),
  // not block until the winner finishes.
  std::this_thread::sleep_for(20ms);
  bool hit = true;
  const auto waited =
      cache.get_or_compile(key, [&] { return computed; }, &hit,
                           CancelToken::deadline_after(15ms));
  EXPECT_EQ(waited, nullptr);
  EXPECT_FALSE(hit);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  winner.join();

  // The winner's result landed in the cache despite the waiter bailing.
  EXPECT_EQ(cache.lookup(key).get(), computed.get());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(cache.stats().inflight_waits, 1u);
}

TEST_F(EngineFaultTest, StoreTierServesAFreshCacheAcrossRestarts) {
  const fs::path dir = scratch_dir();
  const Job job = retention_job();

  std::shared_ptr<const CompiledResult> first;
  {
    ScheduleCache::Config config;
    config.store = open_store(dir);
    ScheduleCache cold(config);
    bool hit = true;
    CacheTier tier = CacheTier::kMemory;
    first = cold.get_or_compile(job, &hit, {}, &tier);
    ASSERT_NE(first, nullptr);
    EXPECT_FALSE(hit);
    EXPECT_EQ(tier, CacheTier::kCompute);
    EXPECT_EQ(config.store->stats().saves, 1u);
  }

  // A brand-new cache over the same directory — the "restarted process".
  ScheduleCache::Config config;
  config.store = open_store(dir);
  ScheduleCache warm(config);
  bool hit = true;
  CacheTier tier = CacheTier::kMemory;
  const auto replayed = warm.get_or_compile(job, &hit, {}, &tier);
  ASSERT_NE(replayed, nullptr);
  EXPECT_FALSE(hit);  // not a *memory* hit
  EXPECT_EQ(tier, CacheTier::kDisk);
  EXPECT_EQ(warm.stats().disk_hits, 1u);

  // The decision replay reproduces the compile exactly.
  ASSERT_TRUE(replayed->feasible());
  EXPECT_EQ(replayed->outcome.chosen_rung(), first->outcome.chosen_rung());
  EXPECT_EQ(replayed->outcome.schedule.rf, first->outcome.schedule.rf);
  EXPECT_EQ(replayed->predicted.total, first->predicted.total);
  EXPECT_EQ(replayed->predicted.data_words_loaded, first->predicted.data_words_loaded);

  // And the memory tier now owns the key.
  const auto memo = warm.get_or_compile(job, &hit, {}, &tier);
  EXPECT_TRUE(hit);
  EXPECT_EQ(tier, CacheTier::kMemory);
  EXPECT_EQ(memo.get(), replayed.get());
}

TEST_F(EngineFaultTest, CorruptStoreBytesAreQuarantinedAndRecomputed) {
  const fs::path dir = scratch_dir();
  const Job job = retention_job();
  const std::uint64_t key = cache_key(job);

  // A record that frames fine (the store returns it) but is semantic
  // garbage: the codec must reject it, quarantine, and recompute.
  {
    const std::shared_ptr<store::DiskScheduleStore> disk = open_store(dir);
    ASSERT_TRUE(disk->save(key, "definitely not an encoded CompiledResult"));
  }

  ScheduleCache::Config config;
  config.store = open_store(dir);
  ScheduleCache cache(config);
  bool hit = true;
  CacheTier tier = CacheTier::kMemory;
  const auto result = cache.get_or_compile(job, &hit, {}, &tier);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(tier, CacheTier::kCompute);  // recomputed, not served
  EXPECT_TRUE(result->feasible());
  EXPECT_EQ(cache.stats().disk_hits, 0u);
  // Quarantined, then overwritten by the fresh result's save.
  EXPECT_GE(config.store->stats().quarantined, 1u);
  const store::FsckReport report = config.store->verify_store();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.scanned, 1u);
}

TEST_F(EngineFaultTest, CancelledResultsAreNeverPersisted) {
  const fs::path dir = scratch_dir();
  const Job job = retention_job();
  ScheduleCache::Config config;
  config.store = open_store(dir);
  ScheduleCache cache(config);

  CancelSource source;
  source.request_cancel();
  const auto cancelled = cache.get_or_compile(job, nullptr, source.token());
  ASSERT_NE(cancelled, nullptr);
  EXPECT_TRUE(cancelled->outcome.cancelled());
  EXPECT_FALSE(persistable(*cancelled));
  EXPECT_EQ(config.store->entry_count(), 0u);
  EXPECT_EQ(config.store->stats().saves, 0u);
}

TEST_F(EngineFaultTest, RefusedSubmitsRunInlineAndCompleteTheBatch) {
  // A batch started from a job while its pool shuts down: every submit is
  // refused, so every job runs inline and still gets its real result.
  const std::vector<Job> jobs(3, retention_job());
  std::vector<JobResult> results;
  BatchStats stats;
  std::atomic<bool> started{false};
  {
    ThreadPool pool(1);
    BatchRunner runner(pool);
    pool.submit([&] {
      started = true;
      while (pool.submit([] {})) std::this_thread::yield();  // destructor began
      results = runner.run(jobs, &stats);
    });
    while (!started.load()) std::this_thread::yield();
  }
  ASSERT_EQ(results.size(), jobs.size());
  for (const JobResult& r : results) {
    ASSERT_NE(r.result, nullptr);
    EXPECT_TRUE(r.feasible());
    EXPECT_EQ(r.result->outcome.chosen_rung(), "CDS");
  }
  EXPECT_EQ(stats.jobs, jobs.size());
  EXPECT_EQ(stats.infeasible, 0u);
}

}  // namespace
}  // namespace msys::engine
