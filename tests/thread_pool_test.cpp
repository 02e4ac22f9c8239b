// Tests for the stage-oriented thread pool.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#endif

namespace streamapprox {
namespace {

/// Runs fn(i) for every i in [0, count), one slice per pool worker.
void for_each_index(ThreadPool& pool, std::size_t count,
                    const std::function<void(std::size_t)>& fn) {
  pool.parallel_slices(count, pool.size(),
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) fn(i);
                       });
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::promise<void> done;
  auto future = done.get_future();
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      if (counter.fetch_add(1) + 1 == 100) done.set_value();
    });
  }
  future.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelSlicesCoverAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for_each_index(pool, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelSlicesIsABarrier) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for_each_index(pool, 64, [&](std::size_t) { done.fetch_add(1); });
  // If parallel_slices returned before completion this could be < 64.
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ParallelSlicesZeroCount) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_slices(0, 2, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelSlicesPartitionExactly) {
  ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_slices(103, 4,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         std::lock_guard lock(mutex);
                         ranges.emplace_back(begin, end);
                       });
  std::sort(ranges.begin(), ranges.end());
  std::size_t covered = 0;
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GE(end, begin);
    covered += end - begin;
    expected_begin = end;
  }
  EXPECT_EQ(covered, 103u);
}

TEST(ThreadPool, ParallelSlicesMoreSlicesThanItems) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_slices(3, 10,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         count += static_cast<int>(end - begin);
                       });
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::atomic<long long> sum{0};
  for_each_index(pool, 1000,
                 [&](std::size_t i) { sum += static_cast<long long>(i); });
  EXPECT_EQ(sum.load(), 999LL * 1000 / 2);
}

TEST(ThreadPool, ZeroRequestsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
  }  // destructor joins after draining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SetCurrentThreadNameTruncatesToKernelLimit) {
  // Linux caps thread names at 15 chars + NUL; the helper must truncate
  // instead of failing (pthread_setname_np rejects long names outright).
  std::thread thread([] {
    set_current_thread_name("sa-name-way-too-long-for-the-kernel");
#ifdef __linux__
    char buffer[32] = {};
    ASSERT_EQ(pthread_getname_np(pthread_self(), buffer, sizeof(buffer)), 0);
    EXPECT_EQ(std::string(buffer), "sa-name-way-too");
#endif
  });
  thread.join();
  // Null is a no-op, not a crash.
  set_current_thread_name(nullptr);
}

TEST(ThreadPool, NamedPoolWorkersCarryThePrefix) {
  ThreadPool pool(2, "sa-test");
  std::atomic<int> checked{0};
  std::promise<void> done;
  auto future = done.get_future();
  for (int i = 0; i < 16; ++i) {
    pool.submit([&] {
#ifdef __linux__
      char buffer[32] = {};
      if (pthread_getname_np(pthread_self(), buffer, sizeof(buffer)) == 0) {
        EXPECT_EQ(std::string(buffer).rfind("sa-test-", 0), 0u)
            << "worker thread named '" << buffer << "'";
      }
#endif
      if (checked.fetch_add(1) + 1 == 16) done.set_value();
    });
  }
  future.wait();
  EXPECT_EQ(checked.load(), 16);
}

TEST(ThreadPool, NestedStagesSequential) {
  // Two consecutive barriers: second stage must observe all of first.
  ThreadPool pool(4);
  std::vector<int> data(256, 0);
  for_each_index(pool, 256, [&](std::size_t i) { data[i] = 1; });
  std::atomic<int> sum{0};
  for_each_index(pool, 256, [&](std::size_t i) { sum += data[i]; });
  EXPECT_EQ(sum.load(), 256);
}

}  // namespace
}  // namespace streamapprox
