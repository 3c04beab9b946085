// Small fixed-size thread pool: the worker substrate of the work-stealing
// scheduler (common/scheduler.h), which submits one participant job per
// worker for each parallel region. Sized to hardware concurrency by default.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ripple {

class ThreadPool {
 public:
  // num_threads == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Enqueue a task; wait_all() blocks until every enqueued task finished.
  void submit(std::function<void()> task);
  void wait_all();

  // True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::vector<std::thread::id> worker_ids_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  std::condition_variable done_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace ripple
