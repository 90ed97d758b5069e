#include "cluster/parallel_executor.h"

#include <sched.h>

#include <algorithm>

#include "common/error.h"

namespace salarm::cluster {

std::size_t usable_cores() {
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&cpus)));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ParallelTickExecutor::ParallelTickExecutor(std::size_t threads)
    : thread_count_(threads != 0
                        ? threads
                        : std::max<std::size_t>(
                              1, std::thread::hardware_concurrency())) {
  workers_.reserve(thread_count_ - 1);
  for (std::size_t i = 0; i + 1 < thread_count_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ParallelTickExecutor::~ParallelTickExecutor() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ParallelTickExecutor::run(
    const std::vector<std::function<void()>>& tasks) {
  SALARM_REQUIRE(tasks_ == nullptr, "run() while a batch is in flight");
  if (workers_.empty() || tasks.size() == 1) {
    // Inline: same run-to-completion semantics, no synchronization.
    std::exception_ptr err;
    for (const auto& task : tasks) {
      try {
        task();
      } catch (...) {
        if (!err) err = std::current_exception();
      }
    }
    if (err) std::rethrow_exception(err);
    return;
  }
  start(tasks);
  wait();
}

void ParallelTickExecutor::start(
    const std::vector<std::function<void()>>& tasks) {
  SALARM_REQUIRE(tasks_ == nullptr, "start() while a batch is in flight");
  if (tasks.empty()) return;
  {
    std::lock_guard lock(mutex_);
    tasks_ = &tasks;
    next_task_ = 0;
    in_flight_ = 0;
    first_error_ = nullptr;
    ++generation_;
  }
  start_cv_.notify_all();
}

void ParallelTickExecutor::wait() {
  if (tasks_ == nullptr) return;
  work_batch();  // the caller is one of the pool's threads

  std::exception_ptr err;
  {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] {
      return next_task_ >= tasks_->size() && in_flight_ == 0;
    });
    err = first_error_;
    tasks_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void ParallelTickExecutor::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
    }
    work_batch();
  }
}

void ParallelTickExecutor::work_batch() {
  std::unique_lock lock(mutex_);
  while (tasks_ != nullptr && next_task_ < tasks_->size()) {
    const std::vector<std::function<void()>>& tasks = *tasks_;
    const std::size_t idx = next_task_++;
    ++in_flight_;
    lock.unlock();
    std::exception_ptr err;
    try {
      tasks[idx]();
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !first_error_) first_error_ = err;
    --in_flight_;
  }
  if (tasks_ != nullptr && next_task_ >= tasks_->size() && in_flight_ == 0) {
    done_cv_.notify_all();
  }
}

}  // namespace salarm::cluster
