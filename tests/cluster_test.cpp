// Cluster tier: shard map geometry, border-alarm replication, session
// handoffs (trigger dedup across shards), safe-period escape clamping, the
// shared worker pool, and the exactness of the sharded run mode
// against the monolithic server.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/shard_map.h"
#include "cluster/sharded_server.h"
#include "common/parallel_executor.h"
#include "core/experiment.h"
#include "saferegion/wire_format.h"
#include "sim/server.h"

namespace salarm::cluster {
namespace {

using geo::Point;
using geo::Rect;

// ---------------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------------

TEST(ShardMapTest, EveryCellHasExactlyOneOwnerAndExtentsTile) {
  const grid::GridOverlay grid(Rect(0, 0, 8000, 4000), 8, 4);
  const ShardMap map(grid, 4);
  ASSERT_EQ(map.shard_count(), 4u);

  double total_area = 0.0;
  for (std::size_t i = 0; i < map.shard_count(); ++i) {
    total_area += map.shard_extent(i).area();
  }
  EXPECT_DOUBLE_EQ(total_area, grid.universe().area());

  for (std::uint32_t col = 0; col < grid.cols(); ++col) {
    for (std::uint32_t row = 0; row < grid.rows(); ++row) {
      const std::size_t owner = map.shard_of_cell({col, row});
      ASSERT_LT(owner, map.shard_count());
      EXPECT_TRUE(
          map.shard_extent(owner).contains(grid.cell_rect({col, row})));
    }
  }
  // Point ownership follows cell ownership.
  EXPECT_EQ(map.shard_of({100, 100}), map.shard_of_cell(grid.cell_of({100, 100})));
  EXPECT_EQ(map.shard_of({7900, 3900}),
            map.shard_of_cell(grid.cell_of({7900, 3900})));
}

TEST(ShardMapTest, ShardsAreContiguousAndOrdered) {
  const grid::GridOverlay grid(Rect(0, 0, 6000, 1000), 6, 1);
  const ShardMap map(grid, 3);
  ASSERT_EQ(map.shard_count(), 3u);
  std::size_t last = 0;
  for (std::uint32_t col = 0; col < grid.cols(); ++col) {
    const std::size_t owner = map.shard_of_cell({col, 0});
    EXPECT_GE(owner, last);  // monotone left to right
    last = owner;
  }
  EXPECT_EQ(last, 2u);
}

TEST(ShardMapTest, ShardCountClampsToStripeCount) {
  const grid::GridOverlay grid(Rect(0, 0, 4000, 4000), 4, 4);
  const ShardMap map(grid, 16);
  EXPECT_EQ(map.shard_count(), 4u);
}

TEST(ShardMapTest, StripesByRowsWhenGridIsTaller) {
  const grid::GridOverlay grid(Rect(0, 0, 2000, 8000), 2, 8);
  const ShardMap map(grid, 4);
  ASSERT_EQ(map.shard_count(), 4u);
  // Rows 0-1 belong to shard 0, rows 6-7 to shard 3.
  EXPECT_EQ(map.shard_of_cell({0, 0}), 0u);
  EXPECT_EQ(map.shard_of_cell({1, 0}), 0u);
  EXPECT_EQ(map.shard_of_cell({0, 7}), 3u);
}

/// The safe period at 1 m/s that a sim::Server over the shard's extent,
/// holding no alarm, grants at p: the shard's escape distance in meters,
/// floored at one 1 s tick (infinity when the shard has no internal side).
double escape_period(const grid::GridOverlay& grid, const ShardMap& map,
                     std::size_t shard, Point p) {
  alarms::AlarmStore store;
  sim::Metrics metrics;
  sim::Server server(store, grid, metrics, map.shard_extent(shard));
  return server.compute_safe_period(0, p, 1.0, 1.0);
}

TEST(ShardMapTest, EscapeDistanceIgnoresUniverseEdges) {
  const grid::GridOverlay grid(Rect(0, 0, 4000, 4000), 4, 4);
  const ShardMap map(grid, 2);  // boundary at x = 2000
  // Shard 0: only its right side is internal.
  EXPECT_DOUBLE_EQ(escape_period(grid, map, 0, {100, 2000}), 1900.0);
  // Shard 1: only its left side is internal.
  EXPECT_DOUBLE_EQ(escape_period(grid, map, 1, {3900, 100}), 1900.0);
  // Point on the boundary itself: zero escape distance, one tick.
  EXPECT_DOUBLE_EQ(escape_period(grid, map, 1, {2000, 500}), 1.0);
}

TEST(ShardMapTest, SingleShardEscapesNowhere) {
  const grid::GridOverlay grid(Rect(0, 0, 4000, 4000), 4, 4);
  const ShardMap map(grid, 1);
  EXPECT_TRUE(std::isinf(escape_period(grid, map, 0, {2000, 2000})));
}

TEST(ShardMapTest, RowStripesEscapeOnlyThroughTheirInternalSides) {
  const grid::GridOverlay grid(Rect(0, 0, 2000, 8000), 2, 8);
  const ShardMap map(grid, 4);  // rows of 2000 m: boundaries at y = 2000k
  ASSERT_EQ(map.shard_of({1000, 2500}), 1u);
  // Shard 1 spans y in [2000, 4000]; its x sides are universe edges.
  EXPECT_DOUBLE_EQ(escape_period(grid, map, 1, {1000, 2500}), 500.0);
  EXPECT_DOUBLE_EQ(escape_period(grid, map, 1, {100, 3800}), 200.0);
  // Shard 0 escapes only upwards, shard 3 only downwards.
  EXPECT_DOUBLE_EQ(escape_period(grid, map, 0, {100, 100}), 1900.0);
  EXPECT_DOUBLE_EQ(escape_period(grid, map, 3, {1900, 7900}), 1900.0);
}

// ---------------------------------------------------------------------------
// ParallelTickExecutor
// ---------------------------------------------------------------------------

using Body = ParallelTickExecutor::Body;

/// start() keeps calling its body after it returns, so only an lvalue body
/// is accepted; a temporary would dangle.
template <class F>
concept StartAccepts =
    requires(ParallelTickExecutor& e, ParallelTickExecutor::Batch& b, F&& f) {
      e.start(b, std::size_t{1}, std::forward<F>(f));
    };
using NoopBody = decltype([](std::size_t) {});
static_assert(StartAccepts<NoopBody&>);
static_assert(StartAccepts<const NoopBody&>);
static_assert(StartAccepts<Body&>);
static_assert(!StartAccepts<NoopBody>);
static_assert(!StartAccepts<NoopBody&&>);
static_assert(!StartAccepts<Body>);

TEST(ParallelTickExecutorTest, RunsEveryTaskExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelTickExecutor executor(threads);
    std::vector<int> hits(64, 0);
    executor.run(hits.size(), [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "threads=" << threads << " task " << i;
    }
  }
}

TEST(ParallelTickExecutorTest, CountChangesFromBatchToBatch) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelTickExecutor executor(threads);
    ParallelTickExecutor::Batch batch;
    std::vector<std::atomic<int>> hits(200);
    const auto hit = [&hits](std::size_t i) { ++hits[i]; };
    for (std::size_t count = 0; count <= hits.size(); ++count) {
      for (auto& h : hits) h = 0;
      executor.run(count, hit, threads);
      for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
            << "run: threads=" << threads << " count=" << count;
      }
      for (auto& h : hits) h = 0;
      executor.start(batch, count, hit);
      executor.wait(batch);
      for (std::size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
            << "start: threads=" << threads << " count=" << count;
      }
    }
  }
}

TEST(ParallelTickExecutorTest, ReusableAcrossBatches) {
  ParallelTickExecutor executor(2);
  int total = 0;
  std::mutex m;
  for (int batch = 0; batch < 50; ++batch) {
    executor.run(8, [&](std::size_t) {
      std::lock_guard lock(m);
      ++total;
    });
  }
  EXPECT_EQ(total, 50 * 8);
}

TEST(ParallelTickExecutorTest, RethrowsTaskException) {
  for (const std::size_t threads : {1u, 3u}) {
    ParallelTickExecutor executor(threads);
    EXPECT_THROW(executor.run(3,
                              [](std::size_t i) {
                                if (i == 1) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    // The pool survives a throwing batch.
    executor.run(2, [](std::size_t) {});
  }
}

TEST(ParallelTickExecutorTest, StartThenWaitRunsEveryTaskOnce) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelTickExecutor executor(threads);
    ParallelTickExecutor::Batch batch;
    std::vector<int> hits(64, 0);
    const auto hit = [&hits](std::size_t i) { ++hits[i]; };
    for (int round = 0; round < 20; ++round) {
      executor.start(batch, hits.size(), hit);
      // The caller's own work overlaps the batch.
      double busy = 0.0;
      for (int i = 1; i < 20000; ++i) busy += std::sqrt(static_cast<double>(i));
      EXPECT_GT(busy, 0.0);
      executor.wait(batch);
    }
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 20) << "threads=" << threads << " task " << i;
    }
  }
}

TEST(ParallelTickExecutorTest, WaitWithoutBatchIsNoOp) {
  for (const std::size_t threads : {1u, 3u}) {
    ParallelTickExecutor executor(threads);
    ParallelTickExecutor::Batch batch;
    EXPECT_NO_THROW(executor.wait(batch));
    int ran = 0;
    const auto count = [&ran](std::size_t) { ++ran; };
    executor.run(1, count);
    EXPECT_NO_THROW(executor.wait(batch));
    executor.start(batch, 1, count);
    executor.wait(batch);
    EXPECT_NO_THROW(executor.wait(batch));
    executor.start(batch, 0, count);
    EXPECT_NO_THROW(executor.wait(batch));
    EXPECT_EQ(ran, 2);
  }
}

TEST(ParallelTickExecutorTest, WaitRethrowsAndPoolIsReusable) {
  for (const std::size_t threads : {1u, 3u}) {
    ParallelTickExecutor executor(threads);
    ParallelTickExecutor::Batch batch;
    int ran = 0;
    std::mutex m;
    const auto count = [&](std::size_t) {
      std::lock_guard lock(m);
      ++ran;
    };
    const auto second_throws = [&](std::size_t i) {
      if (i == 1) throw std::runtime_error("boom");
      count(i);
    };
    executor.start(batch, 3, second_throws);
    EXPECT_THROW(executor.wait(batch), std::runtime_error);
    // The other tasks still ran, and the error is not reported twice.
    EXPECT_EQ(ran, 2);
    EXPECT_NO_THROW(executor.wait(batch));
    executor.start(batch, 2, count);
    EXPECT_NO_THROW(executor.wait(batch));
    executor.run(2, count);
    EXPECT_EQ(ran, 6);
  }
}

TEST(ParallelTickExecutorTest, OneThreadPoolRunsBatchInWait) {
  ParallelTickExecutor executor(1);
  EXPECT_EQ(executor.worker_count(), 0u);
  ParallelTickExecutor::Batch batch;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on;
  const auto record = [&](std::size_t) {
    ran_on.push_back(std::this_thread::get_id());
  };
  executor.start(batch, 4, record);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(ran_on.empty());  // no worker to start it
  executor.wait(batch);
  ASSERT_EQ(ran_on.size(), 4u);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

/// A one-shot gate that a task waits on with a deadline, so a missed
/// release fails the test instead of hanging it.
class Latch {
 public:
  void release() {
    {
      std::lock_guard lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// False when the deadline passed with the latch still closed.
  bool wait() {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(20), [&] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(ParallelTickExecutorTest, CriticalBatchRunsWhileBackgroundWaitsOnIt) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelTickExecutor executor(threads);
    ParallelTickExecutor::Batch background;
    Latch latch;
    std::atomic<int> timed_out{0};
    const auto blocked = [&](std::size_t) {
      if (!latch.wait()) ++timed_out;
    };
    executor.start(background, 6, blocked);
    // Give the workers time to take (and block in) background tasks.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::atomic<int> critical_ran{0};
    executor.run(4, [&](std::size_t i) {
      ++critical_ran;
      if (i == 2) latch.release();
    });
    EXPECT_EQ(critical_ran.load(), 4);
    executor.wait(background);
    EXPECT_EQ(timed_out.load(), 0) << "threads=" << threads;
  }
}

TEST(ParallelTickExecutorTest, FreedWorkerTakesCriticalTaskBeforeBackground) {
  ParallelTickExecutor executor(2);
  ASSERT_EQ(executor.worker_count(), 1u);
  Latch blocker_started;
  Latch release_blocker;
  ParallelTickExecutor::Batch blocking;
  const auto blocker = [&](std::size_t) {
    blocker_started.release();
    EXPECT_TRUE(release_blocker.wait());
  };
  executor.start(blocking, 1, blocker);
  ASSERT_TRUE(blocker_started.wait());  // the one worker is now busy
  std::mutex m;
  std::vector<std::string> order;
  const auto log = [&](const char* what) {
    std::lock_guard lock(m);
    order.emplace_back(what);
  };
  ParallelTickExecutor::Batch background;
  const auto pending = [&](std::size_t) { log("background"); };
  executor.start(background, 1, pending);
  // Both lanes now hold an unclaimed task. The caller keeps the second
  // critical task unclaimed until the freed worker has made its choice.
  Latch critical_started;
  executor.run(
      2,
      [&](std::size_t i) {
        if (i == 0) {
          release_blocker.release();
          EXPECT_TRUE(critical_started.wait());
        } else {
          log("critical");
          critical_started.release();
        }
      },
      2);
  executor.wait(background);
  executor.wait(blocking);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "critical");
}

TEST(ParallelTickExecutorTest, ThreadCapKeepsBatchOnCallerAndLowestWorker) {
  ParallelTickExecutor executor(4);
  ASSERT_EQ(executor.worker_count(), 3u);
  // Background work on every worker must not widen the cap either.
  ParallelTickExecutor::Batch background;
  const auto busy = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  };
  executor.start(background, 64, busy);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex m;
  int active = 0;
  int max_active = 0;
  std::vector<std::size_t> workers;
  bool foreign_thread = false;
  const auto task = [&](std::size_t) {
    {
      std::lock_guard lock(m);
      max_active = std::max(max_active, ++active);
      const std::size_t w = ParallelTickExecutor::current_worker();
      if (w != ParallelTickExecutor::kNotAWorker) {
        workers.push_back(w);
      } else if (std::this_thread::get_id() != caller) {
        foreign_thread = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::lock_guard lock(m);
    --active;
  };
  for (int round = 0; round < 30; ++round) executor.run(6, task, 2);
  executor.wait(background);
  EXPECT_LE(max_active, 2);
  EXPECT_FALSE(foreign_thread);
  for (const std::size_t w : workers) EXPECT_EQ(w, 0u);
  // A cap above the pool is clamped to it: all four threads may join.
  max_active = 0;
  executor.run(16, task, 64);
  EXPECT_LE(max_active, 4);
}

TEST(ParallelTickExecutorTest, TwoBackgroundBatchesInFlightAtOnce) {
  for (const std::size_t threads : {1u, 3u}) {
    ParallelTickExecutor executor(threads);
    ParallelTickExecutor::Batch first;
    ParallelTickExecutor::Batch second;
    std::vector<int> a(40, 0);
    std::vector<int> b(40, 0);
    const auto hit_a = [&a](std::size_t i) { ++a[i]; };
    const auto hit_b = [&b](std::size_t i) { ++b[i]; };
    for (int round = 0; round < 10; ++round) {
      executor.start(first, a.size(), hit_a);
      executor.start(second, b.size(), hit_b);
      executor.run(3, [](std::size_t) {});
      // Waited in the other order than started.
      executor.wait(second);
      executor.wait(first);
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], 10) << "threads=" << threads;
      EXPECT_EQ(b[i], 10) << "threads=" << threads;
    }
  }
}

TEST(ParallelTickExecutorTest, BackgroundErrorSurfacesOnlyInItsOwnWait) {
  for (const std::size_t threads : {1u, 3u}) {
    ParallelTickExecutor executor(threads);
    ParallelTickExecutor::Batch failing;
    ParallelTickExecutor::Batch healthy;
    const auto bad = [](std::size_t i) {
      if (i == 1) throw std::runtime_error("boom");
    };
    std::atomic<int> good_ran{0};
    const auto good = [&](std::size_t) { ++good_ran; };
    executor.start(failing, 3, bad);
    executor.start(healthy, 5, good);
    std::atomic<int> critical_ran{0};
    EXPECT_NO_THROW(executor.run(4, [&](std::size_t) { ++critical_ran; }));
    EXPECT_EQ(critical_ran.load(), 4);
    EXPECT_NO_THROW(executor.wait(healthy));
    EXPECT_EQ(good_ran.load(), 5);
    EXPECT_THROW(executor.wait(failing), std::runtime_error);
    EXPECT_NO_THROW(executor.wait(failing));
  }
}

TEST(ParallelTickExecutorTest, TwoSubmittingThreadsAtOnce) {
  ParallelTickExecutor executor(3);
  std::atomic<int> total{0};
  const auto submitter = [&] {
    ParallelTickExecutor::Batch batch;
    const auto add = [&](std::size_t) { ++total; };
    for (int round = 0; round < 200; ++round) {
      executor.start(batch, 7, add);
      executor.run(5, add, 1 + round % 3);
      executor.wait(batch);
    }
  };
  std::thread other(submitter);
  submitter();
  other.join();
  EXPECT_EQ(total.load(), 2 * 200 * (7 + 5));
}

TEST(ParallelTickExecutorTest, ZeroThreadsFollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(ParallelTickExecutor::shared().worker_count(),
            static_cast<std::size_t>(CPU_COUNT(&saved)) - 1);
  // Pin this thread to one of its CPUs: a pool sized then is inline.
  int cpu = 0;
  while (!CPU_ISSET(cpu, &saved)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(usable_cores(), 1u);
  ParallelTickExecutor pinned(0);
  EXPECT_EQ(pinned.worker_count(), 0u);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
}

// ---------------------------------------------------------------------------
// ShardedServer on a hand-built world
// ---------------------------------------------------------------------------

alarms::SpatialAlarm public_alarm(alarms::AlarmId id, const Rect& region) {
  alarms::SpatialAlarm a;
  a.id = id;
  a.scope = alarms::AlarmScope::kPublic;
  a.region = region;
  a.message = "alert";
  return a;
}

/// 4 km x 4 km, 4x4 grid, two shards split at x = 2000. Alarm 0 straddles
/// the boundary; alarm 1 lives wholly in shard 1.
struct TwoShardWorld {
  TwoShardWorld() {
    store.install(public_alarm(0, Rect(1800, 1000, 2200, 1400)));
    store.install(public_alarm(1, Rect(3000, 3000, 3300, 3300)));
    server = std::make_unique<ShardedServer>(store, grid, 2, 8);
  }

  grid::GridOverlay grid{Rect(0, 0, 4000, 4000), 4, 4};
  alarms::AlarmStore store;
  std::unique_ptr<ShardedServer> server;
};

TEST(ShardedServerTest, BorderAlarmIsReplicatedToBothShards) {
  TwoShardWorld w;
  ASSERT_EQ(w.server->shard_count(), 2u);
  EXPECT_TRUE(w.server->shard_store(0).installed(0));
  EXPECT_TRUE(w.server->shard_store(1).installed(0));
  // The interior alarm lives only in its owning shard.
  EXPECT_FALSE(w.server->shard_store(0).installed(1));
  EXPECT_TRUE(w.server->shard_store(1).installed(1));
}

TEST(ShardedServerTest, HandoffTransfersSpentStateAcrossTheBoundary) {
  TwoShardWorld w;
  // Fire the border alarm from the shard-0 side.
  w.server->set_active_shard(0);
  const auto fired = w.server->handle_position_update(7, {1900, 1200}, 1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 0u);

  // Cross into shard 1 and report from inside the same (replicated) alarm:
  // the handoff must have marked it spent, so it must NOT fire again.
  w.server->set_active_shard(1);
  const auto refired = w.server->handle_position_update(7, {2100, 1200}, 2);
  EXPECT_TRUE(refired.empty());
  EXPECT_TRUE(w.server->shard_store(1).spent(0, 7));

  // The handoff is an explicit, charged inter-shard message on the
  // receiving shard, sized by the real wire format.
  EXPECT_EQ(w.server->shard_metrics(1).handoff_messages, 1u);
  EXPECT_EQ(w.server->shard_metrics(1).handoff_bytes,
            wire::handoff_message_size(1));
  EXPECT_EQ(w.server->shard_metrics(0).handoff_messages, 0u);

  // Moving back is another handoff; alarm 0 stays spent in shard 0.
  w.server->set_active_shard(0);
  EXPECT_TRUE(w.server->handle_position_update(7, {1900, 1200}, 3).empty());
  EXPECT_EQ(w.server->shard_metrics(0).handoff_messages, 1u);
}

TEST(ShardedServerTest, FirstContactIsPlacementNotHandoff) {
  TwoShardWorld w;
  w.server->set_active_shard(1);
  (void)w.server->handle_position_update(3, {3500, 500}, 1);
  EXPECT_EQ(w.server->merged_metrics().handoff_messages, 0u);
}

TEST(ShardedServerTest, SafePeriodGrantIsCappedByEscapeDistance) {
  TwoShardWorld w;
  // Subscriber deep in shard 0 with alarm 0 spent for them: the shard-0
  // slice holds no relevant alarm, but alarm 1 (unknown to shard 0) is
  // still live 3 km away — an unclamped grant would be infinite and miss
  // it. The clamp caps the granted travel distance at the escape distance.
  w.server->set_active_shard(0);
  (void)w.server->handle_position_update(5, {1900, 1200}, 1);  // spends 0
  const double period = w.server->contact(5, {400, 1200})
                            .compute_safe_period(5, {400, 1200}, 20.0, 1.0);
  EXPECT_TRUE(std::isfinite(period));
  EXPECT_LE(period, (2000.0 - 400.0) / 20.0);
}

TEST(ShardedServerTest, MergedMetricsUseStableShardOrder) {
  TwoShardWorld w;
  w.server->set_active_shard(0);
  (void)w.server->handle_position_update(1, {500, 500}, 1);
  w.server->set_active_shard(1);
  (void)w.server->handle_position_update(2, {3500, 500}, 1);
  const sim::Metrics merged = w.server->merged_metrics();
  EXPECT_EQ(merged.uplink_messages,
            w.server->shard_metrics(0).uplink_messages +
                w.server->shard_metrics(1).uplink_messages);
  EXPECT_EQ(merged.uplink_messages, 2u);
}

// ---------------------------------------------------------------------------
// Sharded run mode: exactness against the monolithic server
// ---------------------------------------------------------------------------

core::ExperimentConfig cluster_config() {
  core::ExperimentConfig cfg;
  cfg.universe_km = 8.0;
  cfg.vehicles = 100;
  cfg.minutes = 3.0;
  cfg.alarm_count = 640;
  cfg.public_percent = 10.0;
  cfg.grid_cell_sqkm = 2.5;
  cfg.seed = 11;
  return cfg;
}

void expect_perfect(const sim::RunResult& r) {
  EXPECT_EQ(r.accuracy.missed, 0u) << r.strategy;
  EXPECT_EQ(r.accuracy.spurious, 0u) << r.strategy;
  EXPECT_EQ(r.accuracy.late, 0u) << r.strategy;
  EXPECT_GT(r.accuracy.expected, 0u) << "workload produced no triggers";
}

class ShardedAccuracyTest : public ::testing::Test {
 protected:
  ShardedAccuracyTest() : experiment_(cluster_config()) {}

  sim::RunResult run_sharded(const sim::Simulation::StrategyFactory& f) {
    return experiment_.simulation().run_sharded(f, {.shards = 4});
  }

  core::Experiment experiment_;
};

TEST_F(ShardedAccuracyTest, PeriodicIsPerfect) {
  expect_perfect(run_sharded(experiment_.periodic()));
}

TEST_F(ShardedAccuracyTest, SafePeriodIsPerfect) {
  expect_perfect(run_sharded(experiment_.safe_period()));
}

TEST_F(ShardedAccuracyTest, WeightedRectIsPerfect) {
  expect_perfect(run_sharded(experiment_.rect(saferegion::MotionModel(1.0, 32))));
}

TEST_F(ShardedAccuracyTest, PbsrIsPerfect) {
  saferegion::PyramidConfig cfg;
  cfg.height = 5;
  expect_perfect(run_sharded(experiment_.bitmap(cfg)));
}

TEST_F(ShardedAccuracyTest, CachedPbsrIsPerfect) {
  saferegion::PyramidConfig cfg;
  cfg.height = 5;
  expect_perfect(run_sharded(experiment_.bitmap_cached(cfg)));
}

TEST_F(ShardedAccuracyTest, OptimalIsPerfect) {
  expect_perfect(run_sharded(experiment_.optimal()));
}

/// The threads alive in this process, one /proc/self/task entry each.
std::size_t live_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(ParallelTickExecutorTest, RunsAndOracleCallsStartNoThread) {
  EXPECT_LE(ParallelTickExecutor::shared().worker_count(),
            usable_cores() - 1);
  core::Experiment experiment(cluster_config());
  const std::size_t before = live_threads();
  // The first run also computes the oracle.
  for (int run = 0; run < 2; ++run) {
    expect_perfect(experiment.simulation().run_sharded(
        experiment.rect(saferegion::MotionModel(1.0, 32)),
        {.shards = 4, .threads = 0}));
  }
  EXPECT_EQ(live_threads(), before);
}

/// Client-visible metrics must be *identical* to the monolithic run for
/// the strategies whose protocol is untouched by sharding (PRD, MWPSR,
/// PBSR, OPT): safe regions are computed within one grid cell, cells never
/// span shards, and every alarm intersecting a cell is replicated into its
/// shard. (SP is exempt — its grants are additionally escape-clamped; the
/// server_*_ops counters are exempt — per-shard R*-trees have different
/// shapes.)
class ShardedEqualityTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  ShardedEqualityTest() : experiment_(cluster_config()) {}

  sim::Simulation::StrategyFactory factory() {
    const std::string which = GetParam();
    if (which == "prd") return experiment_.periodic();
    if (which == "mwpsr") {
      return experiment_.rect(saferegion::MotionModel(1.0, 32));
    }
    if (which == "pbsr") {
      saferegion::PyramidConfig cfg;
      cfg.height = 5;
      return experiment_.bitmap(cfg);
    }
    return experiment_.optimal();
  }

  core::Experiment experiment_;
};

TEST_P(ShardedEqualityTest, ClientVisibleMetricsMatchMonolithic) {
  const auto f = factory();
  const auto mono = experiment_.simulation().run(f);
  const auto sharded = experiment_.simulation().run_sharded(f, {.shards = 4});
  expect_perfect(mono);
  expect_perfect(sharded);

  EXPECT_EQ(sharded.trigger_log, mono.trigger_log);
  const sim::Metrics& a = mono.metrics;
  const sim::Metrics& b = sharded.metrics;
  EXPECT_EQ(b.uplink_messages, a.uplink_messages);
  EXPECT_EQ(b.uplink_bytes, a.uplink_bytes);
  EXPECT_EQ(b.downstream_region_bytes, a.downstream_region_bytes);
  EXPECT_EQ(b.downstream_notice_bytes, a.downstream_notice_bytes);
  EXPECT_EQ(b.client_checks, a.client_checks);
  EXPECT_EQ(b.client_check_ops, a.client_check_ops);
  EXPECT_EQ(b.safe_region_recomputes, a.safe_region_recomputes);
  EXPECT_EQ(b.triggers, a.triggers);
  EXPECT_EQ(b.region_payload_bytes.count(), a.region_payload_bytes.count());
  EXPECT_EQ(b.region_payload_bytes.sum(), a.region_payload_bytes.sum());
  EXPECT_EQ(b.region_payload_bytes.min(), a.region_payload_bytes.min());
  EXPECT_EQ(b.region_payload_bytes.max(), a.region_payload_bytes.max());
  // The monolithic run never pays inter-shard traffic.
  EXPECT_EQ(a.handoff_messages, 0u);
  EXPECT_EQ(a.handoff_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Strategies, ShardedEqualityTest,
                         ::testing::Values("prd", "mwpsr", "pbsr", "opt"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ShardedSingleShardTest, SafePeriodDegeneratesToMonolithic) {
  // With one shard the escape distance is infinite, so SP's grants — and
  // therefore every metric — match the monolithic run exactly.
  core::Experiment experiment(cluster_config());
  const auto f = experiment.safe_period();
  const auto mono = experiment.simulation().run(f);
  const auto sharded = experiment.simulation().run_sharded(f, {.shards = 1});
  EXPECT_EQ(sharded.trigger_log, mono.trigger_log);
  EXPECT_EQ(sharded.metrics.uplink_messages, mono.metrics.uplink_messages);
  EXPECT_EQ(sharded.metrics.safe_region_recomputes,
            mono.metrics.safe_region_recomputes);
  EXPECT_EQ(sharded.metrics.handoff_messages, 0u);
}

TEST(ShardedHandoffTest, CrossingsProduceHandoffTraffic) {
  core::Experiment experiment(cluster_config());
  const auto run = experiment.simulation().run_sharded(
      experiment.periodic(), {.shards = 4});
  // Vehicles roam an 8 km universe split into 4 stripes for 3 minutes;
  // some must cross a boundary.
  EXPECT_GT(run.metrics.handoff_messages, 0u);
  EXPECT_GT(run.metrics.handoff_bytes, 0u);
  EXPECT_GE(run.metrics.handoff_bytes,
            run.metrics.handoff_messages * wire::handoff_message_size(0));
}

}  // namespace
}  // namespace salarm::cluster
