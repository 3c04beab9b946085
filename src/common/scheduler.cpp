#include "common/scheduler.h"

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace ripple {

// ---------------------------------------------------------------------------
// ChaseLevDeque
// ---------------------------------------------------------------------------

namespace {
constexpr std::int64_t kInitialDequeCapacity = 64;
}  // namespace

ChaseLevDeque::ChaseLevDeque() {
  auto buf = std::make_unique<Buffer>();
  buf->capacity = kInitialDequeCapacity;
  buf->slots = std::make_unique<std::atomic<void*>[]>(kInitialDequeCapacity);
  buffer_.store(buf.get(), std::memory_order_relaxed);
  buffers_.push_back(std::move(buf));
}

ChaseLevDeque::~ChaseLevDeque() = default;

ChaseLevDeque::Buffer* ChaseLevDeque::grow(Buffer* buf, std::int64_t top,
                                           std::int64_t bottom) {
  auto bigger = std::make_unique<Buffer>();
  bigger->capacity = buf->capacity * 2;
  bigger->slots = std::make_unique<std::atomic<void*>[]>(
      static_cast<std::size_t>(bigger->capacity));
  for (std::int64_t i = top; i < bottom; ++i) {
    bigger->slot(i).store(buf->slot(i).load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
  Buffer* raw = bigger.get();
  buffer_.store(raw, std::memory_order_release);
  // The old buffer stays alive (buffers_) — a stealer that loaded it before
  // the swap may still read a slot; the value it reads was copied verbatim,
  // and its CAS on top_ decides whether the read counts.
  buffers_.push_back(std::move(bigger));
  return raw;
}

// Memory orderings: the top_/bottom_ accesses below use the original
// sequentially-consistent Chase–Lev formulation rather than the weaker
// fence-based one of Lê et al. 2013. Every bottom_ store is
// release-or-stronger, so a thief that observes ANY bottom value
// synchronizes with all of the owner's prior slot/node writes (the
// fence-free release-sequence rules make mixed relaxed/release bottom
// stores unsound for that), and seq_cst gives pop/steal their store-load
// ordering without standalone fences — which ThreadSanitizer (the CI's
// race checker) does not model. The extra cost is one seq_cst store per
// push/pop: noise at whole-shard task granularity.

void ChaseLevDeque::push(void* item) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  if (b - t >= buf->capacity) buf = grow(buf, t, b);
  buf->slot(b).store(item, std::memory_order_relaxed);
  bottom_.store(b + 1, std::memory_order_seq_cst);  // publishes the slot
}

void* ChaseLevDeque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Buffer* buf = buffer_.load(std::memory_order_relaxed);
  // The decrement must be globally ordered BEFORE the top read (store-load
  // ordering): a concurrent stealer either sees the smaller bottom or its
  // CAS on top is the one we observe.
  bottom_.store(b, std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  if (t > b) {
    // Already empty: restore bottom.
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return nullptr;
  }
  void* item = buf->slot(b).load(std::memory_order_relaxed);
  if (t == b) {
    // Last element: race against stealers via CAS on top.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      item = nullptr;  // a stealer won
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }
  return item;
}

void* ChaseLevDeque::steal() {
  std::int64_t t = top_.load(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
  if (t >= b) return nullptr;  // empty
  Buffer* buf = buffer_.load(std::memory_order_acquire);
  void* item = buf->slot(t).load(std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race (another thief or the owner's pop)
  }
  return item;
}

// ---------------------------------------------------------------------------
// WorkStealingScheduler
// ---------------------------------------------------------------------------

namespace {
// Nested-region detection: the participant context of the calling thread.
struct ParticipantContext {
  WorkStealingScheduler* scheduler = nullptr;
  std::size_t slot = 0;
};
thread_local ParticipantContext tl_participant;
// Task nesting depth on this thread: busy time is only recorded for
// depth-1 tasks, so work a task helps with inside its own nested regions
// is not double-counted (the stolen sub-tasks are depth-1 on the thief).
thread_local std::size_t tl_task_depth = 0;

// Holds the calling thread inside a task for the scope's lifetime (an
// exception leaving the body still restores the depth).
struct TaskDepthScope {
  TaskDepthScope() { ++tl_task_depth; }
  ~TaskDepthScope() { --tl_task_depth; }
};

// Cheap per-participant xorshift for victim selection. Randomness only
// shapes steal contention, never results.
std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}
}  // namespace

WorkStealingScheduler::WorkStealingScheduler(ThreadPool* pool) : pool_(pool) {
  width_ = pool_ != nullptr ? pool_->size() + 1 : 1;
  deques_.reserve(width_);
  for (std::size_t s = 0; s < width_; ++s) {
    deques_.push_back(std::make_unique<ChaseLevDeque>());
  }
  slots_.resize(width_);
  stats_.width = width_;
}

WorkStealingScheduler::~WorkStealingScheduler() = default;

void WorkStealingScheduler::reset_stats() {
  stats_ = SchedulerStats{};
  stats_.width = width_;
}

void WorkStealingScheduler::run_serial(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  // Busy time counts only outside any task: a serial region nested in a
  // task is already inside that task's seconds.
  const bool top_level = tl_task_depth == 0;
  StopWatch watch;
  {
    const TaskDepthScope scope;
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
  stats_.tasks += n;
  if (top_level) {
    const double sec = watch.elapsed_sec();
    stats_.busy_max_sec += sec;
    stats_.busy_total_sec += sec;
  }
}

void WorkStealingScheduler::seed_tasks(std::vector<TaskNode>& nodes,
                                       std::span<const std::size_t> costs) {
  const std::size_t n = nodes.size();
  // Greedy LPT: visit tasks in descending cost and hand each to the least
  // loaded slot. With no costs the order is the index order and the
  // assignment degenerates to round-robin.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  if (!costs.empty()) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return costs[a] > costs[b];
                     });
  }
  std::vector<std::size_t> load(width_, 0);
  std::vector<std::vector<TaskNode*>> per_slot(width_);
  for (const std::uint32_t idx : order) {
    const std::size_t slot = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    nodes[idx].seed_slot = static_cast<std::uint32_t>(slot);
    load[slot] += costs.empty() ? 1 : std::max<std::size_t>(1, costs[idx]);
    per_slot[slot].push_back(&nodes[idx]);
  }
  // Per slot the list is in descending cost; push in reverse so the owner
  // (LIFO pop) starts with its LARGEST task — the LPT longest-first rule.
  // Thieves then steal the victim's smallest pending task from the top.
  for (std::size_t s = 0; s < width_; ++s) {
    for (auto it = per_slot[s].rbegin(); it != per_slot[s].rend(); ++it) {
      deques_[s]->push(*it);
    }
  }
}

void WorkStealingScheduler::execute(TaskNode* node, std::size_t slot) {
  StopWatch watch;
  ++tl_task_depth;
  (*node->group->body)(node->index);
  --tl_task_depth;
  SlotCounters& mine = slots_[slot];
  if (tl_task_depth == 0) mine.busy_sec += watch.elapsed_sec();
  mine.tasks += 1;
  if (node->seed_slot != slot) mine.steals += 1;
  // The decrement is the task's completion point; release so the region
  // closer (and anyone reading pending == 0) sees the task's writes.
  node->group->pending.fetch_sub(1, std::memory_order_acq_rel);
}

WorkStealingScheduler::TaskNode* WorkStealingScheduler::try_steal(
    std::size_t slot, std::uint64_t& rng_state) {
  // One randomized sweep over the other participants.
  for (std::size_t attempt = 0; attempt + 1 < width_; ++attempt) {
    const std::size_t victim = next_rand(rng_state) % width_;
    if (victim == slot) continue;
    if (void* item = deques_[victim]->steal()) {
      return static_cast<TaskNode*>(item);
    }
  }
  return nullptr;
}

void WorkStealingScheduler::help(std::size_t slot, TaskGroup& group) {
  std::uint64_t rng_state = 0x9e3779b97f4a7c15ull ^ (slot + 1);
  while (group.pending.load(std::memory_order_acquire) > 0) {
    TaskNode* node = static_cast<TaskNode*>(deques_[slot]->pop());
    if (node == nullptr) node = try_steal(slot, rng_state);
    if (node != nullptr) {
      execute(node, slot);
    } else {
      // Nothing to run: the remaining tasks are in flight on other
      // participants. Regions are short (one engine phase), so a polite
      // spin is cheaper than parking on a condition variable.
      std::this_thread::yield();
    }
  }
}

void WorkStealingScheduler::participate(std::size_t slot, TaskGroup& group) {
  const ParticipantContext saved = tl_participant;
  tl_participant = {this, slot};
  help(slot, group);
  tl_participant = saved;
}

void WorkStealingScheduler::collect_region_stats() {
  double region_max = 0;
  for (SlotCounters& sc : slots_) {
    stats_.tasks += sc.tasks;
    stats_.steals += sc.steals;
    stats_.busy_total_sec += sc.busy_sec;
    region_max = std::max(region_max, sc.busy_sec);
    sc = SlotCounters{};
  }
  stats_.busy_max_sec += region_max;
}

void WorkStealingScheduler::run_nested(
    std::size_t slot, std::size_t n, std::span<const std::size_t> costs,
    const std::function<void(std::size_t)>& body) {
  TaskGroup group{&body, static_cast<std::int64_t>(n)};
  std::vector<TaskNode> nodes(n);
  // Sub-tasks go on the calling participant's own deque — idle participants
  // of the enclosing region steal them from the top. Push ascending-cost so
  // the owner pops the largest first (matching seed_tasks' LPT rule).
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  if (!costs.empty()) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return costs[a] < costs[b];
                     });
  }
  for (const std::uint32_t idx : order) {
    nodes[idx].group = &group;
    nodes[idx].index = idx;
    nodes[idx].seed_slot = static_cast<std::uint32_t>(slot);
    deques_[slot]->push(&nodes[idx]);
  }
  // Help until the nested region drains. The loop may also execute tasks of
  // the ENCLOSING region that sit below ours in the deque (or get stolen) —
  // that is the standard help-first discipline and cannot deadlock: tasks
  // never block on anything but nested regions, which are themselves
  // stealable.
  help(slot, group);
  // Node lifetimes: a nested node is only dereferenced by the thread whose
  // pop/steal WON it, and pending hits 0 strictly after the last winner
  // finished executing — stale deque slots beyond top_ are never
  // re-dereferenced (top_ is monotone), so destroying nodes here is safe.
}

void WorkStealingScheduler::run(std::size_t n,
                                std::span<const std::size_t> costs,
                                const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  RIPPLE_CHECK(costs.empty() || costs.size() == n);
  if (tl_participant.scheduler == this) {
    run_nested(tl_participant.slot, n, costs, body);
    return;
  }
  // Serial fallbacks: no pool, a single task, or a caller that is a pool
  // worker without being a participant (opening a region there would block
  // a worker in wait_all behind its own queue, a deadlock once every worker
  // does it).
  if (pool_ == nullptr || width_ <= 1 || n == 1 || pool_->on_worker_thread()) {
    run_serial(n, body);
    return;
  }
  TaskGroup group{&body, static_cast<std::int64_t>(n)};
  std::vector<TaskNode> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].group = &group;
    nodes[i].index = static_cast<std::uint32_t>(i);
  }
  // Seeding all deques from here is safe: the previous region's participant
  // jobs fully drained (wait_all below), and ThreadPool::submit's mutex
  // publishes the pushes to every participant.
  seed_tasks(nodes, costs);
  for (std::size_t slot = 1; slot < width_; ++slot) {
    pool_->submit([this, &group, slot] { participate(slot, group); });
  }
  participate(0, group);
  // pending == 0 already; wait_all only drains the participant JOBS so the
  // next region may safely re-seed every deque.
  pool_->wait_all();
  collect_region_stats();
}

void WorkStealingScheduler::parallel_range(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t max_chunks = std::max<std::size_t>(1, n / min_chunk);
  // Mild over-decomposition (2 blocks per participant) so a late-arriving
  // thief still finds work without per-element task overhead. At width 1
  // nobody can steal, so splitting would only add calls.
  const std::size_t num_tasks =
      width_ > 1 ? std::min(width_ * 2, max_chunks) : 1;
  if (num_tasks <= 1) {
    // One inline block: inside a task it is part of that task; at the top
    // level it counts as one task of its own.
    if (tl_task_depth > 0) {
      body(begin, end);
    } else {
      run_serial(1, [&](std::size_t) { body(begin, end); });
    }
    return;
  }
  const std::size_t chunk = (n + num_tasks - 1) / num_tasks;
  run(num_tasks, {}, [&](std::size_t task) {
    const std::size_t lo = begin + task * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo < hi) body(lo, hi);
  });
}

}  // namespace ripple
