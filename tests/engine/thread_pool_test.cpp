#include "msys/engine/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "msys/common/error.hpp"

namespace msys::engine {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      EXPECT_TRUE(pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); }));
    }
  }
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // The destructor must finish the queue, not drop it.
  }
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  std::atomic<bool> ran{false};
  {
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    pool.submit([&ran] { ran = true; });
  }
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, SubmitFromInsideAJob) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    pool.submit([&pool, &count] {
      for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(
            pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); }));
      }
      count.fetch_add(1, std::memory_order_relaxed);
    });
    // Keep the pool live until the outer job has submitted everything: a
    // submit racing the destructor would be refused, not lost.
    while (count.load(std::memory_order_relaxed) < 11) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, UsesMultipleWorkerThreads) {
  std::mutex mu;
  std::set<std::thread::id> seen;
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&mu, &seen] {
        std::lock_guard<std::mutex> lock(mu);
        seen.insert(std::this_thread::get_id());
      });
    }
  }
  // All 200 ran; at least one worker did (single-core schedulers may well
  // serve everything from one thread, so only the lower bound is portable).
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 4u);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(ThreadPool, SubmitReturnsTrueOnALivePool) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.submit([] {}));
}

// Regression: a job that re-submits while the destructor drains used to
// trip MSYS_REQUIRE(!stopping_) inside a worker — an exception with no
// handler on that stack, i.e. std::terminate.  The contract is now a
// well-defined refusal: submit() returns false and the worker carries on.
TEST(ThreadPool, ResubmitDuringShutdownIsRefusedNotTerminate) {
  std::atomic<int> executed{0};
  std::atomic<int> refused{0};
  // Declared before the pool so the chain's state outlives the drain.
  auto chain = std::make_shared<std::function<void()>>();
  {
    ThreadPool pool(2);
    std::weak_ptr<std::function<void()>> weak = chain;  // break the self-cycle
    *chain = [&pool, &executed, &refused, weak] {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (const auto self = weak.lock()) {
        if (!pool.submit(*self)) refused.fetch_add(1, std::memory_order_relaxed);
      }
    };
    ASSERT_TRUE(pool.submit(*chain));
    // Let the chain establish itself, then destroy the pool mid-flight.
    while (executed.load(std::memory_order_relaxed) < 3) std::this_thread::yield();
  }
  // The chain ran at least until we saw it, and ended with exactly one
  // refusal (a single self-perpetuating chain dies on its first rejection).
  EXPECT_GE(executed.load(), 3);
  EXPECT_EQ(refused.load(), 1);
}

TEST(ThreadPool, QueueDepthPeakTracksBacklog) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&release] {
    while (!release.load(std::memory_order_relaxed)) std::this_thread::yield();
  });
  for (int i = 0; i < 8; ++i) pool.submit([] {});
  // The blocker holds the single worker, so all 8 queued behind it.
  EXPECT_GE(pool.queue_depth_peak(), 8u);
  release.store(true, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// run_indexed: the one fan-out onto a pool.
// ---------------------------------------------------------------------------

TEST(RunIndexed, RunsEachIndexExactlyOnceAtAnyThreadCount) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    run_indexed(&pool, hits.size(),
                [&hits](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(RunIndexed, NullPoolRunsInlineInIndexOrder) {
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  run_indexed(nullptr, 6, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  run_indexed(nullptr, 0, [](std::size_t) { FAIL() << "no index to run"; });
}

TEST(RunIndexed, IsReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 1; wave <= 3; ++wave) {
    run_indexed(&pool, 50,
                [&count](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(count.load(), wave * 50);
  }
}

TEST(RunIndexed, RethrowsTheLowestIndexExceptionAfterEveryIndexRan) {
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
    std::atomic<int> ran{0};
    try {
      run_indexed(pool, 64, [&ran](std::size_t i) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (i == 9 || i == 40) throw Error("index " + std::to_string(i));
      });
      ADD_FAILURE() << "expected a rethrow";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "index 9");
      EXPECT_EQ(ran.load(), 64);
    }
  }
}

TEST(RunIndexed, ReturnsWhileAnotherCallersJobHoldsTheSharedPool) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> blocker_running{false};
  pool.submit([&] {
    blocker_running = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!blocker_running.load()) std::this_thread::yield();
  std::atomic<int> count{0};
  run_indexed(&pool, 20,
              [&count](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); });
  // Returned with the other caller's job still holding one worker.
  EXPECT_EQ(count.load(), 20);
  EXPECT_FALSE(release.load());
  release = true;
}

TEST(RunIndexed, RefusedIndicesRunInlineDuringShutdown) {
  std::atomic<bool> started{false};
  std::vector<std::thread::id> ran_on(3);
  std::thread::id job_thread;
  {
    ThreadPool pool(1);
    pool.submit([&] {
      started = true;
      job_thread = std::this_thread::get_id();
      // Wait until the destructor has begun: the pool refuses from then on.
      while (pool.submit([] {})) std::this_thread::yield();
      run_indexed(&pool, ran_on.size(),
                  [&ran_on](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    });
    while (!started.load()) std::this_thread::yield();
  }
  for (const std::thread::id& id : ran_on) EXPECT_EQ(id, job_thread);
}

}  // namespace
}  // namespace msys::engine
