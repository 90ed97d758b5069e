// Trace-driven simulation engine.
//
// A Simulation owns one (network, alarms, trace, grid) workload and runs
// any number of processing strategies against the *identical* motion
// pattern — the paper's methodology for comparing PRD, SP, MWPSR, GBSR/
// PBSR and OPT. Each run gets a fresh cluster::ShardedServer; the
// ground-truth oracle is computed once and every run is scored against it.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alarms/alarm_store.h"
#include "dynamics/churn.h"
#include "failover/crash_plan.h"
#include "grid/grid_overlay.h"
#include "mobility/position_source.h"
#include "net/channel.h"
#include "net/link.h"
#include "sim/metrics.h"
#include "sim/oracle.h"
#include "sim/server.h"
#include "sim/tick_pipeline.h"
#include "strategies/strategy.h"

namespace salarm::sim {

struct RunResult {
  std::string strategy;
  Metrics metrics;
  AccuracyReport accuracy;
  std::size_t ticks = 0;
  std::size_t subscribers = 0;
  double duration_s = 0.0;
  /// Real wall-clock seconds the run took (informational; the cost models
  /// use counted events, not wall time).
  double wall_seconds = 0.0;
  /// The run's trigger events in (tick, subscriber, alarm) order; the
  /// determinism tests compare these byte-for-byte across thread counts.
  std::vector<alarms::TriggerEvent> trigger_log;
};

/// Configuration of the sharded (cluster) run mode.
struct ShardedRunOptions {
  /// Number of spatial shards (clamped to the grid's stripe count).
  std::size_t shards = 4;
  /// Threads each of a tick's fan-outs (shard tasks, due checkpoints,
  /// channel chunks) may use: the caller plus the lowest `threads - 1`
  /// workers of the shared pool. 0 = usable_cores(); larger
  /// values are clamped to the pool. Results are bit-identical for any.
  std::size_t threads = 1;
};

class Simulation {
 public:
  /// The source, store and grid must outlive the simulation. `ticks`
  /// counts the initial positions as tick 0 and must be >= 2. Any
  /// PositionSource works: the road-network trace generator, a
  /// recorded/imported trace, or a synthetic model. The simulation
  /// never writes the store: each run slices its alarm set into fresh
  /// shard stores, and the oracle replays churn into a private copy.
  Simulation(mobility::PositionSource& source,
             const alarms::AlarmStore& store, const grid::GridOverlay& grid,
             std::size_t ticks);

  /// Builds a strategy against the given client link; called once per run.
  /// The same factory drives every shard count — strategies are written
  /// against net::ClientLink, which wraps the cluster behind the
  /// reliability protocol, so they cannot tell one shard from many, nor a
  /// perfect channel from a faulty one.
  using StrategyFactory = std::function<
      std::unique_ptr<strategies::ProcessingStrategy>(net::ClientLink&)>;

  /// Replays the trace from the start under a fresh strategy instance and
  /// returns its metrics and accuracy against the oracle. Shorthand for
  /// run_sharded with {shards = 1, threads = 1}: single-node operation is
  /// the one-shard degenerate case of the same TickPipeline (DESIGN.md
  /// §11), bit-identical to the historical single-server loop (the golden
  /// test in tests/pipeline_test.cpp pins this).
  RunResult run(const StrategyFactory& factory);

  /// The one run path. Processes the trace on a cluster::ShardedServer
  /// through the unified TickPipeline: subscribers are grouped by owning
  /// shard each tick and the groups fan out over the shared worker pool.
  /// Metrics are the stable-order merge of the per-shard metrics; results
  /// are bit-identical for any thread count. Accuracy against the oracle
  /// is still enforced by the caller's tests — sharding is exact (see
  /// cluster/sharded_server.h).
  RunResult run_sharded(const StrategyFactory& factory,
                        const ShardedRunOptions& options);

  /// Ground-truth trigger events (computed on first use, then cached).
  /// Under churn the timeline is replayed into a private copy of the
  /// store's alarm set; the store itself is only read.
  const std::vector<alarms::TriggerEvent>& oracle();

  /// Enables alarm churn (DESIGN.md §8): precomputes a deterministic
  /// install/remove/expiry timeline for ticks [1, ticks) over the store's
  /// alarm set as the initial state, and invalidates the cached oracle.
  /// Every subsequent run — at any shard count — and the oracle replay the
  /// identical timeline from that initial set, so runs stay independent.
  /// The store must not change afterwards: the timeline's ids and expiries
  /// are drawn against its current alarm set.
  void set_churn(const dynamics::ChurnConfig& config, std::uint64_t seed);

  /// Routes every subsequent run through a fault-injecting channel
  /// (DESIGN.md §9): loss, delay, duplication and burst outages per
  /// ChannelConfig, seeded deterministically. Faults never change the
  /// ground truth — the oracle stays valid — only the protocol work
  /// needed to preserve it. The all-zero config restores the perfect
  /// pass-through link.
  void set_channel(const net::ChannelConfig& config, std::uint64_t seed);

  /// Arms shard crash-recovery for every subsequent run (DESIGN.md §10):
  /// a fresh CrashPlan is drawn per run from (seed, shard count, ticks)
  /// and handed to that run's ShardedServer, its only reader; shards
  /// checkpoint/journal per `config`, and clients degrade while the
  /// server reports their shard down. Crashes never change the ground
  /// truth — the oracle stays valid — only the recovery work needed to
  /// preserve it.
  /// Because run() is a one-shard cluster, single-server crash-recovery
  /// works too: a crash of shard 0 takes the whole service down and every
  /// client buffers until recovery.
  void set_failover(const failover::FailoverConfig& config,
                    std::uint64_t seed);

  std::size_t ticks() const { return ticks_; }
  double tick_seconds() const { return source_.tick_seconds(); }
  double duration_s() const {
    return static_cast<double>(ticks_) * tick_seconds();
  }

  /// Test hook: observes every serial phase the pipeline enters, on every
  /// subsequent run (see sim/tick_pipeline.h). Pass {} to detach.
  void set_phase_observer(TickPipeline::PhaseObserver observer) {
    phase_observer_ = std::move(observer);
  }

 private:
  mobility::PositionSource& source_;
  const alarms::AlarmStore& store_;
  const grid::GridOverlay& grid_;
  std::size_t ticks_;
  std::optional<std::vector<alarms::TriggerEvent>> oracle_;
  std::optional<dynamics::AlarmScheduler> scheduler_;
  net::ChannelConfig channel_config_{};
  std::uint64_t channel_seed_ = 0;
  std::optional<failover::FailoverConfig> failover_config_;
  std::uint64_t failover_seed_ = 0;
  TickPipeline::PhaseObserver phase_observer_;
};

}  // namespace salarm::sim
