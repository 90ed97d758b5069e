// Fixed thread pool for fanning per-shard tick work across cores.
//
// Determinism contract: run(tasks) executes every task exactly once and
// returns only after all have finished; tasks must not share mutable state
// (the cluster tier gives each task one shard, and a shard's state is only
// ever touched by the task that owns it for the batch). Which thread runs
// which task is unspecified — results must therefore be merged in a stable
// order by the caller, never in completion order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace salarm::cluster {

/// Cores this thread may run on: the size of its affinity mask, or
/// std::thread::hardware_concurrency() when the mask cannot be read; at
/// least 1. Pools sized with it stay inline under a one-CPU pin.
std::size_t usable_cores();

class ParallelTickExecutor {
 public:
  /// Pool with the given number of worker threads; 0 means
  /// std::thread::hardware_concurrency(). The calling thread participates
  /// in every batch, so `threads == 1` runs everything inline with no
  /// synchronization at all.
  explicit ParallelTickExecutor(std::size_t threads = 0);
  ~ParallelTickExecutor();

  ParallelTickExecutor(const ParallelTickExecutor&) = delete;
  ParallelTickExecutor& operator=(const ParallelTickExecutor&) = delete;

  /// Runs all tasks, blocking until every one has completed. The first
  /// exception thrown by any task is rethrown on the caller (remaining
  /// tasks still run to completion).
  void run(const std::vector<std::function<void()>>& tasks);

 private:
  void worker_loop();
  void work_batch();

  std::size_t thread_count_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::vector<std::function<void()>>* tasks_ = nullptr;
  std::size_t next_task_ = 0;    // guarded by mutex_
  std::size_t in_flight_ = 0;    // tasks claimed but not finished
  std::uint64_t generation_ = 0; // batch counter; workers wake on change
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

}  // namespace salarm::cluster
