// The one tick loop (DESIGN.md §11).
//
// TickPipeline owns the ordered serial phases that run between parallel
// ticks and the per-shard subscriber fan-out. Every run goes through it:
// Simulation::run_sharded drives it over a cluster::ShardedServer, and
// Simulation::run is the {shards = 1, threads = 1} case (a one-shard
// cluster over the same per-shard sim::Server engine) — there is no
// separate single-server loop, so every tier added here (and every future
// one) works at any shard count by construction.
//
// Serial phase order per tick, after the trace steps (each phase only runs
// when its tier is armed):
//
//   1. failover begin   crash/recovery windows scheduled for this tick
//   2. churn            due alarm installs / removes / TTL expiries
//   3. due checkpoints  periodic durable shard checkpoints
//   4. graveyard        tomb compaction vs the pending-stamp watermark
//   5. channel          link outage bookkeeping + reconnect flushes
//   6. subscribers      parallel per-shard fan-out of the strategy
//
// The order is load-bearing: churn must see the tick's final shard up/down
// picture (1 before 2), checkpoints must capture the tick's churn (2
// before 3), reconnect flushes must evaluate against post-churn alarm
// state (2 before 5), and no shard task may start until every serial
// phase is done (6 last). A PhaseObserver can watch the sequence; the
// phase-ordering test pins it. Phases 3 and 6 fan one task per shard over
// the shared worker pool (DESIGN.md §7), phase 6 largest group first, and
// phase 5 fans fixed subscriber chunks over it (DESIGN.md §9), so each
// phase keeps its place in the order while its work runs in parallel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/sharded_server.h"
#include "dynamics/churn.h"
#include "mobility/position_source.h"
#include "net/link.h"
#include "strategies/strategy.h"

namespace salarm::sim {

/// Serial phases of one tick, in the order they run.
enum class TickPhase {
  kFailoverBegin,  ///< crashes/recoveries applied (failover armed only)
  kChurn,          ///< due alarm installs/removes (churn enabled only)
  kCheckpoints,    ///< periodic durability sweep (failover armed only)
  kGraveyard,      ///< tomb compaction (churn enabled only)
  kChannel,        ///< outage bookkeeping + reconnect flushes (always)
  kSubscribers,    ///< parallel per-shard subscriber fan-out (always)
};

class TickPipeline {
 public:
  /// Observes every phase the pipeline enters (test hook; keep it cheap —
  /// it runs inside the serial section of every tick).
  using PhaseObserver = std::function<void(TickPhase, std::uint64_t tick)>;

  /// All references must outlive the pipeline. `scheduler` (nullable)
  /// enables the churn phases; the failover phases run when the server has
  /// failover armed (ShardedServer::enable_failover). `threads` caps each
  /// fan-out's threads, the caller's included (0 = usable_cores());
  /// results are bit-identical for any value.
  TickPipeline(mobility::PositionSource& source,
               cluster::ShardedServer& server, net::ClientLink& link,
               strategies::ProcessingStrategy& strategy, std::size_t ticks,
               std::size_t threads, dynamics::AlarmScheduler* scheduler,
               PhaseObserver observer = {});

  /// Replays the whole trace: the tick-0 initialization fan-out, ticks
  /// [1, ticks) through the serial phases above, then the end-of-run
  /// epilogue (recover still-down shards, flush still-buffered reports).
  void run();

 private:
  void enter(TickPhase phase, std::uint64_t tick) {
    if (observer_) observer_(phase, tick);
  }

  /// Groups subscribers by owning shard (stable subscriber order within a
  /// group) and fans one task per shard over the pool, largest group
  /// first. `tick` 0 is the initialization pass.
  void fan_out(std::uint64_t tick);

  mobility::PositionSource& source_;
  cluster::ShardedServer& server_;
  net::ClientLink& link_;
  strategies::ProcessingStrategy& strategy_;
  std::size_t ticks_;
  dynamics::AlarmScheduler* scheduler_;
  PhaseObserver observer_;

  std::size_t threads_;
  /// Per-shard subscriber groups, reused every tick: they keep their
  /// capacity across clears, so the steady-state fan-out allocates nothing.
  std::vector<std::vector<mobility::VehicleId>> groups_;
  /// Claim order of the shards this tick: descending group size, ties in
  /// shard order. Task k runs shard order_[k], so the caller, which claims
  /// first, takes the largest group while the workers are still waking.
  std::vector<std::size_t> order_;
};

}  // namespace salarm::sim
