#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace ripple {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  worker_ids_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
    worker_ids_.push_back(workers_.back().get_id());
  }
}

bool ThreadPool::on_worker_thread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread::id& id : worker_ids_) {
    if (id == self) return true;
  }
  return false;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RIPPLE_CHECK_MSG(!stop_, "submit on stopped pool");
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_cv_.notify_one();
}

void ThreadPool::wait_all() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace ripple
