// Work-stealing shard scheduler: the one phase runtime of the engines,
// pooled or not.
//
// Motivation: mailbox shard sizes follow the stream's R-MAT power-law tail,
// so a static split of the shard range leaves most workers idle while one
// worker drains the hot shard. The stealing runtime instead treats every
// shard (or sender block, or recompute block) as ONE task with a cost hint,
// seeds the tasks over per-participant Chase–Lev deques with a greedy LPT
// assignment (largest task to the least-loaded participant), and lets any
// participant that runs dry steal from a random victim's deque top.
//
// Execution model:
//  * One scheduler serves one sequential driver (an engine). A top-level
//    run() opens a parallel region: the caller seeds all deques, submits one
//    participant job per pool worker, and participates itself (slot 0); the
//    region closes when every task has executed and the participant jobs
//    have drained (ThreadPool::wait_all). Without a pool the scheduler has
//    width 1 and runs every region inline on the caller.
//  * Nested regions — run() or parallel_range() called from INSIDE a task —
//    push their sub-tasks onto the calling participant's own deque, where
//    idle participants steal them, and the caller helps (pop own deque,
//    steal on empty) until the nested region drains. Nested parallel work
//    is therefore stolen, never serialized, unlike the static
//    ThreadPool::parallel_for whose nested fallback must inline (see the
//    deadlock note in common/thread_pool.h).
//
// Determinism: the scheduler never changes WHAT a task computes or the
// order of work INSIDE a task — engines keep their single-writer-per-shard
// and fixed within-shard drain order, so embeddings are bit-identical for
// any shard count and thread count, pooled or not (property-tested).
//
// Stats: per-region task counts, steal counts (a steal = a task executed by
// a participant other than the one it was seeded to), and per-participant
// busy seconds accumulate between reset_stats() calls; imbalance() is the
// busiest participant's share relative to a perfect split (1.0 = balanced).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

namespace ripple {

class ThreadPool;

// The engines run one scheduler. SchedulerMode and make_dist_engine's
// `scheduler` parameter stay only because the end-to-end benchmark
// (perfbench/src/dist.cpp) passes SchedulerMode::kSteal; both go with the
// next benchmark change.
enum class SchedulerMode { kSteal };

// Lock-free work-stealing deque (Chase & Lev 2005; the sequentially
// consistent formulation — see the memory-ordering note in scheduler.cpp
// for why not the weaker fence-based one). The OWNER pushes and pops at
// the bottom
// (LIFO); ANY thread may steal from the top (FIFO). Items are opaque
// pointers; the deque never dereferences them. The circular buffer grows on
// demand; retired buffers stay alive until destruction so a racing stealer
// can always safely read a (possibly stale) slot before its CAS on top
// decides whether the read wins.
class ChaseLevDeque {
 public:
  ChaseLevDeque();
  ~ChaseLevDeque();

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  void push(void* item);  // owner only
  void* pop();            // owner only; nullptr when empty
  void* steal();          // any thread; nullptr when empty or lost a race

 private:
  struct Buffer {
    std::int64_t capacity;  // power of two
    std::unique_ptr<std::atomic<void*>[]> slots;
    std::atomic<void*>& slot(std::int64_t i) {
      return slots[i & (capacity - 1)];
    }
  };
  Buffer* grow(Buffer* buf, std::int64_t top, std::int64_t bottom);

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Buffer*> buffer_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // owner-managed lifetime
};

// Cumulative scheduler counters between reset_stats() calls. This struct
// is also the execution-stats block embedded in BatchResult /
// DistBatchResult / StreamingServer::Stats / bench RunMetrics — an engine
// resets per batch, copies the scheduler's stats in, and downstream layers
// accumulate(). A no-pool engine reports width 1 and no steals.
struct SchedulerStats {
  std::uint64_t tasks = 0;   // tasks executed
  std::uint64_t steals = 0;  // executed by a non-seeded participant
  std::size_t width = 0;     // participant slots (pool workers + caller)
  // Busy time = Σ task execution seconds. busy_max_sec sums each region's
  // busiest participant (the gating endpoint); busy_total_sec sums over all
  // participants. max/mean ratio: 1.0 = perfectly balanced.
  double busy_max_sec = 0;
  double busy_total_sec = 0;
  double imbalance() const {
    return busy_total_sec > 0
               ? busy_max_sec * static_cast<double>(width) / busy_total_sec
               : 0.0;
  }
  // Merges one batch's block into a running total (counters sum; width is
  // a configuration echo, not a counter).
  void accumulate(const SchedulerStats& other) {
    tasks += other.tasks;
    steals += other.steals;
    width = std::max(width, other.width);
    busy_max_sec += other.busy_max_sec;
    busy_total_sec += other.busy_total_sec;
  }
};

class WorkStealingScheduler {
 public:
  // pool may be null: the width is then 1 and every region runs serially
  // inline (callers need no branching; stats still count tasks).
  explicit WorkStealingScheduler(ThreadPool* pool);
  ~WorkStealingScheduler();

  WorkStealingScheduler(const WorkStealingScheduler&) = delete;
  WorkStealingScheduler& operator=(const WorkStealingScheduler&) = delete;

  // Participant slots: pool workers + the calling driver thread.
  std::size_t width() const { return width_; }

  // Parallel region: runs body(task) for every task in [0, n). costs (empty,
  // or size n) guide the LPT seeding — use the task's pending work (e.g.
  // Mailbox::Shard::size()); execution is cost-agnostic. Blocks until every
  // task has run. Callable from inside a task (nested region, see above).
  void run(std::size_t n, std::span<const std::size_t> costs,
           const std::function<void(std::size_t)>& body);

  // Range region: splits [begin, end) into >= min_chunk stealable blocks and
  // runs body(lo, hi) per block. The nested-capable replacement for
  // ThreadPool::parallel_for on the stealing runtime: called from inside a
  // task, the blocks are pushed to the caller's deque and stolen by idle
  // participants instead of the whole range serializing inline. At width 1
  // there is no one to steal, so the range runs as one inline block.
  void parallel_range(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t, std::size_t)>& body,
                      std::size_t min_chunk = 256);

  const SchedulerStats& stats() const { return stats_; }
  void reset_stats();

 private:
  struct TaskGroup {
    const std::function<void(std::size_t)>* body;
    std::atomic<std::int64_t> pending;
  };
  struct TaskNode {
    TaskGroup* group;
    std::uint32_t index;
    std::uint32_t seed_slot;
  };
  // Per-participant region counters, padded so concurrent writers never
  // share a cache line.
  struct alignas(64) SlotCounters {
    double busy_sec = 0;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
  };

  void seed_tasks(std::vector<TaskNode>& nodes,
                  std::span<const std::size_t> costs);
  void participate(std::size_t slot, TaskGroup& group);
  void help(std::size_t slot, TaskGroup& group);
  void execute(TaskNode* node, std::size_t slot);
  TaskNode* try_steal(std::size_t slot, std::uint64_t& rng_state);
  void run_serial(std::size_t n, const std::function<void(std::size_t)>& body);
  void run_nested(std::size_t slot, std::size_t n,
                  std::span<const std::size_t> costs,
                  const std::function<void(std::size_t)>& body);
  void collect_region_stats();

  ThreadPool* pool_;
  std::size_t width_ = 1;
  std::vector<std::unique_ptr<ChaseLevDeque>> deques_;  // one per slot
  std::vector<SlotCounters> slots_;                     // one per slot
  SchedulerStats stats_;
};

}  // namespace ripple
