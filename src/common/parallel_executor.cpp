#include "common/parallel_executor.h"

#include <sched.h>

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace salarm {

namespace {

thread_local std::size_t this_worker = ParallelTickExecutor::kNotAWorker;

// Started with the program, so no caller pays for (or counts the
// allocations of) its threads.
ParallelTickExecutor shared_pool;

}  // namespace

std::size_t usable_cores() {
  cpu_set_t cpus;
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&cpus)));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ParallelTickExecutor::ParallelTickExecutor(std::size_t threads)
    : workers_((threads != 0 ? threads : usable_cores()) - 1) {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i].thread = std::thread([this, i] { worker_loop(i); });
  }
}

ParallelTickExecutor::~ParallelTickExecutor() {
  {
    std::lock_guard lock(mutex_);
    shutdown_ = true;
    for (Worker& w : workers_) w.wake.notify_one();
  }
  for (Worker& w : workers_) w.thread.join();
}

ParallelTickExecutor& ParallelTickExecutor::shared() { return shared_pool; }

std::size_t ParallelTickExecutor::current_worker() { return this_worker; }

void ParallelTickExecutor::run(std::size_t count, Body body,
                               std::size_t threads) {
  if (count == 0) return;
  Batch batch;
  // threads == 0 wraps to every worker; at 1 the caller runs it all.
  submit(batch, count, body, critical_,
         std::min(threads - 1, workers_.size()));
  finish(batch, critical_);
}

void ParallelTickExecutor::start_body(Batch& batch, std::size_t count,
                                      Body body) {
  SALARM_REQUIRE(!batch.body_, "start() while a batch is in flight");
  if (count != 0) submit(batch, count, body, background_, workers_.size());
}

void ParallelTickExecutor::wait(Batch& batch) {
  // Only the batch's owner writes body_, so it may read it unlocked.
  if (batch.body_) finish(batch, background_);
}

void ParallelTickExecutor::submit(Batch& batch, std::size_t count, Body body,
                                  Batch*& lane, std::size_t limit) {
  const bool critical = &lane == &critical_;
  std::lock_guard lock(mutex_);
  batch.body_ = body;
  batch.count_ = count;
  batch.next_ = 0;
  batch.worker_limit_ = limit;
  batch.link_ = lane;
  lane = &batch;
  // The caller of a critical batch runs one task itself.
  std::size_t wanted = critical ? count - 1 : count;
  for (std::size_t k = 0; k < limit && wanted > 0; ++k) {
    Worker& w = workers_[critical ? k : limit - 1 - k];
    if (w.idle) {
      w.idle = false;
      w.wake.notify_one();
      --wanted;
    }
  }
}

ParallelTickExecutor::Batch* ParallelTickExecutor::claimable(
    std::size_t index) const {
  for (Batch* lane : {critical_, background_}) {
    for (Batch* b = lane; b != nullptr; b = b->link_) {
      if (index < b->worker_limit_ && b->next_ < b->count_) return b;
    }
  }
  return nullptr;
}

void ParallelTickExecutor::run_next(Batch& batch,
                                    std::unique_lock<std::mutex>& lock) {
  const Body body = *batch.body_;
  const std::size_t index = batch.next_++;
  ++batch.in_flight_;
  lock.unlock();
  std::exception_ptr err;
  try {
    body(index);
  } catch (...) {
    err = std::current_exception();
  }
  lock.lock();
  if (err && !batch.error_) batch.error_ = err;
  // The owner cannot return before this thread lets go of the lock.
  if (--batch.in_flight_ == 0 && batch.next_ == batch.count_) {
    batch.done_.notify_one();
  }
}

void ParallelTickExecutor::finish(Batch& batch, Batch*& lane) {
  std::exception_ptr err;
  {
    std::unique_lock lock(mutex_);
    while (batch.next_ < batch.count_) run_next(batch, lock);
    batch.done_.wait(lock, [&] { return batch.in_flight_ == 0; });
    Batch** at = &lane;
    while (*at != &batch) at = &(*at)->link_;
    *at = batch.link_;
    batch.body_.reset();
    err = std::exchange(batch.error_, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

void ParallelTickExecutor::worker_loop(std::size_t index) {
  this_worker = index;
  Worker& self = workers_[index];
  std::unique_lock lock(mutex_);
  while (!shutdown_) {
    if (Batch* batch = claimable(index)) {
      run_next(*batch, lock);
    } else {
      self.idle = true;
      self.wake.wait(lock, [&] { return !self.idle || shutdown_; });
    }
  }
}

}  // namespace salarm
