// Fixed thread pool for fanning per-shard tick work across cores.
//
// Determinism contract: a batch executes every task exactly once; tasks
// must not share mutable state (the cluster tier gives each task one shard,
// and a shard's state is only ever touched by the task that owns it for the
// batch). Which thread runs which task is unspecified — results must
// therefore be merged in a stable order by the caller, never in completion
// order.
//
// A batch is either run(tasks), which returns once every task has
// finished, or start(tasks) ... wait(), which lets the caller do other
// work while the workers run it. The caller takes part in the batch only
// inside run() or wait(): there it claims any task no worker has claimed
// yet, so a pool with no workers runs the whole batch there. At most one
// batch is in flight, and the task vector must outlive it. Calls come from
// one thread.
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
  /// Pool with the given number of threads, the caller's included, so it
  /// starts `threads - 1` workers; 0 means
  /// std::thread::hardware_concurrency(). `threads == 1` starts none and
  /// runs every batch on the caller.
  explicit ParallelTickExecutor(std::size_t threads = 0);
  /// Joins the workers. A batch still in flight is abandoned: tasks already
  /// begun finish, the rest may not run, and its error is dropped.
  ~ParallelTickExecutor();

  ParallelTickExecutor(const ParallelTickExecutor&) = delete;
  ParallelTickExecutor& operator=(const ParallelTickExecutor&) = delete;

  /// Runs all tasks, blocking until every one has completed. The first
  /// exception thrown by any task is rethrown on the caller (remaining
  /// tasks still run to completion).
  void run(const std::vector<std::function<void()>>& tasks);

  /// Hands the tasks to the workers and returns at once. Requires that no
  /// batch is in flight.
  void start(const std::vector<std::function<void()>>& tasks);

  /// Runs on the caller the tasks of the started batch that no worker has
  /// claimed, blocks until all have completed, then rethrows the first
  /// exception any of them threw. A no-op when no batch is in flight.
  void wait();

 private:
  void worker_loop();
  void work_batch();

  std::size_t thread_count_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // The batch in flight. Written only by the calling thread, under mutex_,
  // so that thread may read it unlocked.
  const std::vector<std::function<void()>>* tasks_ = nullptr;
  std::size_t next_task_ = 0;    // guarded by mutex_
  std::size_t in_flight_ = 0;    // tasks claimed but not finished
  std::uint64_t generation_ = 0; // batch counter; workers wake on change
  std::exception_ptr first_error_;
  bool shutdown_ = false;
};

}  // namespace salarm::cluster
