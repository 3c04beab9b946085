// Work-stealing scheduler tests: the Chase–Lev deque under concurrent
// push/pop/steal stress, region correctness (every task exactly once, any
// n/cost/width combination), nested-region semantics (sub-tasks are
// stealable, never serialized away), and the stats contract.
#include "common/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace ripple {
namespace {

TEST(ChaseLevDeque, OwnerLifoThiefFifo) {
  ChaseLevDeque deque;
  int a = 1, b = 2, c = 3;
  deque.push(&a);
  deque.push(&b);
  deque.push(&c);
  EXPECT_EQ(deque.pop(), &c);    // owner pops the most recent push
  EXPECT_EQ(deque.steal(), &a);  // thieves take the oldest
  EXPECT_EQ(deque.pop(), &b);
  EXPECT_EQ(deque.pop(), nullptr);
  EXPECT_EQ(deque.steal(), nullptr);
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque deque;
  std::vector<int> items(5000);
  for (int& item : items) deque.push(&item);
  // Alternate pop/steal so both ends drain the grown buffer.
  std::size_t seen = 0;
  for (;;) {
    void* from_owner = deque.pop();
    if (from_owner != nullptr) ++seen;
    void* stolen = deque.steal();
    if (stolen != nullptr) ++seen;
    if (from_owner == nullptr && stolen == nullptr) break;
  }
  EXPECT_EQ(seen, items.size());
}

TEST(ChaseLevDeque, ConcurrentPushPopStealConsumesEachItemOnce) {
  // One owner thread pushes 40k items while popping in bursts; three
  // thieves steal concurrently. Every item must be consumed exactly once
  // — the core single-consumption guarantee the propagation phases (and
  // the TSan CI configuration) rely on.
  constexpr std::size_t kItems = 40000;
  constexpr std::size_t kThieves = 3;
  std::vector<std::atomic<int>> consumed(kItems);
  std::vector<std::size_t> ids(kItems);
  std::iota(ids.begin(), ids.end(), 0);

  ChaseLevDeque deque;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> total{0};

  std::vector<std::thread> thieves;
  for (std::size_t t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (void* item = deque.steal()) {
          consumed[*static_cast<std::size_t*>(item)].fetch_add(1);
          total.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
      // Final sweep so nothing is left once the owner stops.
      while (void* item = deque.steal()) {
        consumed[*static_cast<std::size_t*>(item)].fetch_add(1);
        total.fetch_add(1);
      }
    });
  }

  for (std::size_t i = 0; i < kItems; ++i) {
    deque.push(&ids[i]);
    // Pop in bursts to exercise the owner/thief race on the last element.
    if (i % 7 == 0) {
      if (void* item = deque.pop()) {
        consumed[*static_cast<std::size_t*>(item)].fetch_add(1);
        total.fetch_add(1);
      }
    }
  }
  while (void* item = deque.pop()) {
    consumed[*static_cast<std::size_t*>(item)].fetch_add(1);
    total.fetch_add(1);
  }
  done.store(true, std::memory_order_release);
  for (auto& thief : thieves) thief.join();

  EXPECT_EQ(total.load(), kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(consumed[i].load(), 1) << "item " << i;
  }
}

TEST(WorkStealingScheduler, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(&pool);
  for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                              std::size_t{333}}) {
    std::vector<std::atomic<int>> hits(n);
    scheduler.run(n, {}, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(WorkStealingScheduler, CostGuidedRunCoversAllTasks) {
  // Heavily skewed costs (one hot task) must not change coverage — LPT
  // seeding only shapes the assignment.
  ThreadPool pool(3);
  WorkStealingScheduler scheduler(&pool);
  const std::size_t n = 64;
  std::vector<std::size_t> costs(n, 1);
  costs[17] = 1000000;
  std::vector<std::atomic<int>> hits(n);
  scheduler.run(n, costs, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_EQ(scheduler.stats().tasks, n);
  EXPECT_EQ(scheduler.stats().width, 4u);  // 3 workers + the caller
}

TEST(WorkStealingScheduler, SerialWithoutPool) {
  WorkStealingScheduler scheduler(nullptr);
  EXPECT_EQ(scheduler.width(), 1u);
  std::vector<int> hits(10, 0);
  scheduler.run(hits.size(), {}, [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(scheduler.stats().tasks, 10u);
  EXPECT_EQ(scheduler.stats().steals, 0u);
}

TEST(WorkStealingScheduler, ParallelRangeWithoutPoolRunsOneInlineBlock) {
  // Width 1 has nobody to steal a block, so the whole range is one call.
  WorkStealingScheduler scheduler(nullptr);
  std::vector<std::pair<std::size_t, std::size_t>> calls;
  scheduler.parallel_range(
      3, 4099,
      [&](std::size_t lo, std::size_t hi) { calls.push_back({lo, hi}); }, 64);
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, 3u);
  EXPECT_EQ(calls[0].second, 4099u);
  EXPECT_EQ(scheduler.stats().tasks, 1u);
  EXPECT_EQ(scheduler.stats().width, 1u);
}

TEST(WorkStealingScheduler, NestedRunExecutesAndStealsSubTasks) {
  // A task that opens a nested region must see every sub-task execute
  // exactly once — and the runtime must stay live (no deadlock) even when
  // every outer task nests.
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(&pool);
  constexpr std::size_t kOuter = 12;
  constexpr std::size_t kInner = 24;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  scheduler.run(kOuter, {}, [&](std::size_t o) {
    scheduler.run(kInner, {}, [&](std::size_t i) {
      hits[o * kInner + i].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "sub-task " << i;
  }
  EXPECT_EQ(scheduler.stats().tasks, kOuter + kOuter * kInner);
}

TEST(WorkStealingScheduler, DeeplyNestedRunTerminates) {
  ThreadPool pool(2);
  WorkStealingScheduler scheduler(&pool);
  std::atomic<int> total{0};
  scheduler.run(8, {}, [&](std::size_t) {
    scheduler.run(4, {}, [&](std::size_t) {
      scheduler.run(2, {}, [&](std::size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 8 * 4 * 2);
}

TEST(WorkStealingScheduler, ParallelRangeCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(&pool);
  std::vector<std::atomic<int>> hits(10000);
  scheduler.parallel_range(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      },
      16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  scheduler.parallel_range(5, 5, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(WorkStealingScheduler, NestedParallelRangeIsStolenNotSerialized) {
  // Inside a region, parallel_range must split into stealable blocks: each
  // element runs once, and the region completes even at min_chunk 1.
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(&pool);
  std::vector<std::atomic<int>> hits(4096);
  scheduler.run(4, {}, [&](std::size_t o) {
    const std::size_t span = hits.size() / 4;
    scheduler.parallel_range(
        o * span, (o + 1) * span,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
        },
        1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // The nested blocks really were separate tasks, not one inlined range:
  // 4 outer tasks plus at least one sub-task per outer region.
  EXPECT_GT(scheduler.stats().tasks, 4u);
}

TEST(WorkStealingScheduler, ParallelRangeSumMatchesSerial) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(&pool);
  std::vector<long long> values(50000);
  std::iota(values.begin(), values.end(), 0);
  std::atomic<long long> sum{0};
  scheduler.parallel_range(0, values.size(),
                           [&](std::size_t lo, std::size_t hi) {
                             long long local = 0;
                             for (std::size_t i = lo; i < hi; ++i) {
                               local += values[i];
                             }
                             sum.fetch_add(local);
                           });
  EXPECT_EQ(sum.load(),
            std::accumulate(values.begin(), values.end(), 0LL));
}

TEST(WorkStealingScheduler, StatsAccumulateAndReset) {
  ThreadPool pool(2);
  WorkStealingScheduler scheduler(&pool);
  scheduler.run(20, {}, [](std::size_t) {});
  const SchedulerStats& stats = scheduler.stats();
  EXPECT_EQ(stats.tasks, 20u);
  EXPECT_EQ(stats.width, 3u);
  EXPECT_GE(stats.busy_total_sec, stats.busy_max_sec);
  // Imbalance is max/mean-normalized: >= 1 whenever any work ran.
  EXPECT_GE(stats.imbalance(), 1.0);
  scheduler.run(5, {}, [](std::size_t) {});
  EXPECT_EQ(scheduler.stats().tasks, 25u);
  scheduler.reset_stats();
  EXPECT_EQ(scheduler.stats().tasks, 0u);
  EXPECT_EQ(scheduler.stats().steals, 0u);
  EXPECT_EQ(scheduler.stats().width, 3u);
  EXPECT_EQ(scheduler.stats().imbalance(), 0.0);
}

TEST(WorkStealingScheduler, ManyConsecutiveRegionsStaySound) {
  // Regions reuse the same deques; monotone top/bottom indices must keep
  // stale entries from ever resurfacing across region boundaries.
  ThreadPool pool(3);
  WorkStealingScheduler scheduler(&pool);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::atomic<int>> hits(17);
    scheduler.run(hits.size(), {}, [&](std::size_t i) {
      hits[i].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "round " << round;
  }
}

}  // namespace
}  // namespace ripple
