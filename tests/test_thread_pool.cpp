#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace roleshare::util {
namespace {

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_GE(ThreadPool::resolve_thread_count(0), 1u);
  EXPECT_EQ(ThreadPool::resolve_thread_count(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_thread_count(7), 7u);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::promise<int> done;
  pool.submit([&done] { done.set_value(41); });
  EXPECT_EQ(done.get_future().get(), 41);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    constexpr std::size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for_indexed(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ParallelForHandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  pool.parallel_for_indexed(0, [](std::size_t) { FAIL(); });
  std::atomic<int> count{0};
  pool.parallel_for_indexed(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ExceptionOfLowestIndexPropagates) {
  for (const std::size_t workers : {1u, 4u}) {
    ThreadPool pool(workers);
    constexpr std::size_t n = 64;
    std::vector<std::atomic<int>> attempted(n);
    try {
      pool.parallel_for_indexed(n, [&](std::size_t i) {
        ++attempted[i];
        if (i == 7) throw std::runtime_error("seven");
        if (i == 23) throw std::runtime_error("twenty-three");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "seven");
    }
    // Every index is still attempted even though two of them threw.
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(attempted[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<long long> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for_indexed(
        100, [&](std::size_t i) { total += static_cast<long long>(i); });
  }
  EXPECT_EQ(total.load(), 5 * (99 * 100 / 2));
}

// The per-call state lives on the caller's stack. If the last worker
// published live == 0 before locking the call's done_mutex, the caller
// could return and the next call build its state in the same stack slot
// while that worker still locked the dead mutex (a hang or crash; a race
// under TSan). Tiny back-to-back batches on a full-width pool make that
// window as wide as it gets, and pool teardown between lifetimes joins
// every worker.
TEST(ThreadPool, BackToBackTinyBatchesAcrossPoolLifetimes) {
  constexpr int kLifetimes = 8;
  constexpr int kCallsPerLifetime = 4000;
  for (int life = 0; life < kLifetimes; ++life) {
    ThreadPool pool(4);
    std::size_t total = 0;
    for (int call = 0; call < kCallsPerLifetime; ++call) {
      std::atomic<std::size_t> sum{0};
      pool.parallel_for_indexed(4, [&](std::size_t i) { sum += i + 1; });
      total += sum.load();
    }
    EXPECT_EQ(total, std::size_t{kCallsPerLifetime} * 10) << "life " << life;
  }
}

}  // namespace
}  // namespace roleshare::util
