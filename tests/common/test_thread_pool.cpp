#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

namespace ripple {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_all();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, OnWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());  // caller is not a worker
  std::atomic<int> inside{0};
  pool.submit([&] { inside.store(pool.on_worker_thread() ? 1 : -1); });
  pool.wait_all();
  EXPECT_EQ(inside.load(), 1);
}

}  // namespace
}  // namespace ripple
