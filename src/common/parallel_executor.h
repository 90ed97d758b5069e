// The process's worker pool: every per-tick fan-out runs on it.
//
// A batch is a task count and one body: task k calls body(k), and tasks
// are claimed in index order. Determinism contract: a batch executes every
// task exactly once; tasks must not share mutable state (the cluster tier
// gives each task one shard). Which thread runs which task is unspecified,
// so callers merge results in a stable order, never in completion order.
//
// Batches come from any number of threads at once, in two lanes:
//  - critical, run(count, body, threads): the caller takes part, joined by
//    at most `threads - 1` workers, always the lowest-numbered ones, so a
//    batch's allocations stay on the same few threads (and their malloc
//    arenas) run after run;
//  - background, start(batch, count, body) ... wait(batch): the caller
//    works on meanwhile, and wait() runs every task no worker has claimed.
// A worker takes a background task only when no critical task it may join
// is unclaimed.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/function_ref.h"

namespace salarm {

/// Cores this thread may run on: the size of its affinity mask (else
/// std::thread::hardware_concurrency()), at least 1.
std::size_t usable_cores();

class ParallelTickExecutor {
 public:
  /// A batch's body: called once per task index.
  using Body = FunctionRef<void(std::size_t)>;

  /// One batch's state, owned by its submitter; live from start() to wait().
  /// Every worker that claims one of its tasks writes it, so it takes whole
  /// cache lines of its own: a submitter's fields beside it, such as a
  /// trace generator's vectors that the same workers read per vehicle, must
  /// not share a line with it.
  class alignas(64) Batch {
    friend class ParallelTickExecutor;
    // All guarded by the pool's mutex.
    std::optional<Body> body_;      // engaged while in flight
    std::size_t count_ = 0;
    std::size_t next_ = 0;          // first unclaimed task
    std::size_t in_flight_ = 0;     // claimed but not finished
    std::size_t worker_limit_ = 0;  // workers below this index may join
    std::exception_ptr error_;      // the first task error
    Batch* link_ = nullptr;         // next batch of the same lane
    std::condition_variable done_;
  };

  /// Pool with the given number of threads, the caller's included, so it
  /// starts `threads - 1` workers; 0 means usable_cores().
  explicit ParallelTickExecutor(std::size_t threads = 0);
  /// Joins the workers. A batch still in flight is abandoned: tasks already
  /// begun finish, the rest may not run, and its error is dropped.
  ~ParallelTickExecutor();

  /// The process-wide pool, started with the program: usable_cores() - 1
  /// workers (none under a one-CPU pin), shared by every fan-out.
  static ParallelTickExecutor& shared();

  std::size_t worker_count() const { return workers_.size(); }
  /// The calling thread's index in the pool that started it, or kNotAWorker.
  static std::size_t current_worker();
  static constexpr std::size_t kNotAWorker = static_cast<std::size_t>(-1);

  /// Critical lane: runs body(0) ... body(count - 1) on the caller plus at
  /// most `threads - 1` workers (0 = every worker; a larger value is
  /// clamped to the pool), blocking until every one has completed. The
  /// first exception thrown by any task is rethrown on the caller
  /// (remaining tasks still run).
  void run(std::size_t count, Body body, std::size_t threads = 0);

  /// Background lane: hands body(0) ... body(count - 1) to idle workers and
  /// returns at once. Requires that `batch` is not in flight. The workers
  /// call `body` until wait(batch) returns, so it is taken by lvalue
  /// reference and must live that long; a temporary does not compile.
  template <class F>
  void start(Batch& batch, std::size_t count, F& body) {
    start_body(batch, count, Body(body));
  }

  /// Runs on the caller the tasks of `batch` that no worker has claimed,
  /// blocks until all have completed, then rethrows the first exception
  /// any of them threw. A no-op when `batch` is not in flight.
  void wait(Batch& batch);

 private:
  struct Worker {
    std::thread thread;
    std::condition_variable wake;
    bool idle = false;
  };

  /// start() once `body` is known to outlive the batch.
  void start_body(Batch& batch, std::size_t count, Body body);
  void worker_loop(std::size_t index);
  /// Links the batch into `lane` and wakes as many idle workers below
  /// `limit` as it has tasks for: critical from worker 0 up, background
  /// from the top down, which keeps the low workers free for critical work.
  void submit(Batch& batch, std::size_t count, Body body, Batch*& lane,
              std::size_t limit);
  /// A batch with an unclaimed task worker `index` may run, critical first.
  Batch* claimable(std::size_t index) const;
  /// Runs the batch's next task unlocked; called and returns with `lock`.
  static void run_next(Batch& batch, std::unique_lock<std::mutex>& lock);
  /// The caller's side of a batch: claims the rest, waits, unlinks.
  void finish(Batch& batch, Batch*& lane);

  std::vector<Worker> workers_;
  std::mutex mutex_;
  Batch* critical_ = nullptr;    // guarded by mutex_
  Batch* background_ = nullptr;  // guarded by mutex_
  bool shutdown_ = false;        // guarded by mutex_
};

}  // namespace salarm
