// Spatially sharded alarm-processing cluster: the one server surface.
//
// N shards each own one stripe of the universe (cluster/shard_map.h) and
// run a per-shard sim::Server engine over a slice of the global alarm set:
// every alarm whose region (closed) intersects the shard extent, under its
// original global id (alarms/alarm_store.h sparse ids). Because safe
// regions are computed within a single grid cell and cells never span
// shards, each shard answers its cell queries exactly as one server
// holding every alarm would — the strategies run unchanged and remain
// 100% accurate. A grant needs nothing from the cluster but the owning
// shard: contact() routes to it and returns its sim::Server, on which
// net::ClientLink::request runs the strategy's grant call. Every run,
// single-node included, goes through this class.
//
// Border-spanning alarms are replicated to every overlapping shard, so a
// trigger must be deduplicated across shards: each subscriber session
// carries the cumulative list of alarms fired for it, and on the first
// contact after crossing a shard boundary the session is handed off to the
// new owner — an explicit inter-shard message (wire::kShardHandoff),
// charged to the *receiving* shard's metrics (the source shard's metrics
// may be owned by another thread at that moment) — which marks those
// alarms spent in the destination store before the contact proceeds.
//
// Threading/determinism contract: the caller (sim::TickPipeline, the one
// tick loop every run mode shares — DESIGN.md §11) groups subscribers by
// owning shard each tick and processes each group on one thread after
// set_active_shard(); a shard's store, metrics and server are only ever
// touched by the thread holding its group, and per-subscriber sessions
// only by the thread processing that subscriber. Merged results use
// stable shard order, so metrics and trigger logs are bit-identical for
// any thread count. Single-node operation is shard_count = 1: one slice
// holding every alarm over the whole universe, no handoffs — the one
// shard's sim::Server then behaves exactly like the paper's single
// evaluation server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "alarms/alarm_store.h"
#include "cluster/shard_map.h"
#include "failover/crash_plan.h"
#include "grid/grid_overlay.h"
#include "saferegion/wire_format.h"
#include "sim/metrics.h"
#include "sim/server.h"

namespace salarm::cluster {

class ShardedServer {
 public:
  /// Builds `shard_count` shards (clamped to the grid's stripe count) over
  /// slices of the given global alarm set. `subscriber_count` bounds the
  /// subscriber id space (sessions are pre-sized so no allocation happens
  /// on the parallel path); the link, the strategies and the dynamics tier
  /// read it from here. The grid must outlive the server.
  ShardedServer(const alarms::AlarmStore& global_alarms,
                const grid::GridOverlay& grid, std::size_t shard_count,
                std::size_t subscriber_count);

  // ---- Client-facing calls (all position-taking calls route to the
  // owning shard, which must be the active shard of the calling thread;
  // see sim::Server for what each computes and charges) ----
  /// Routes a position-taking call: resolves the owning shard, performs
  /// the session handoff if the subscriber just crossed a boundary, and
  /// returns the shard's engine. Grant calls run on the result directly.
  sim::Server& contact(alarms::SubscriberId s, geo::Point position);
  std::vector<alarms::AlarmId> handle_position_update(
      alarms::SubscriberId s, geo::Point position, std::uint64_t tick);
  /// Temporal evaluation of an outage-buffered report (DESIGN.md §9).
  /// Serial phase only: claims the owning shard itself (the flush runs on
  /// the main thread between ticks), routes through the session handoff
  /// like any contact, and evaluates against the shard's alarm lifetimes.
  std::vector<alarms::AlarmId> handle_buffered_update(
      alarms::SubscriberId s, geo::Point position,
      std::uint64_t stamp_tick);
  /// Drains the subscriber's mailboxes across all shards in stable shard
  /// order. A subscriber's grant always lives in the shard it last
  /// contacted (grants never outgrow a shard's extent), but stale entries
  /// in previously-visited shards may add extra — harmless and
  /// deterministic — pushes. Safe on the parallel path: each subscriber is
  /// processed by exactly one thread per tick, mailboxes are pre-sized by
  /// enable_dynamics, and installs only run in the serial churn phase.
  std::vector<dynamics::InvalidationPush> take_invalidations(
      alarms::SubscriberId s);
  const grid::GridOverlay& grid() const { return grid_; }
  /// Metrics of the calling thread's active shard: client-side work is
  /// charged to the shard hosting the subscriber this tick.
  sim::Metrics& metrics();

  // ---- Dynamics tier (DESIGN.md §8; all three are serial-phase only) ----
  /// Enables dynamics on every shard, pre-sizing all mailboxes to the
  /// subscriber count so no allocation races with the parallel tick path.
  void enable_dynamics();
  /// Installs the alarm into every shard whose extent (closed) intersects
  /// its region — the same replication rule as the initial slices — and
  /// lets each such shard invalidate its own outstanding grants. The tick
  /// is recorded per replica for temporal evaluation of buffered reports.
  /// Must be called between ticks (serial churn phase).
  void install_alarm(const alarms::SpatialAlarm& alarm, std::uint64_t tick);
  /// Removes the alarm from every shard holding a replica; each replica
  /// moves to its shard's removal graveyard with its lifetime. A down
  /// shard defers the removal to its recovery. Serial-phase only.
  void remove_alarm(alarms::AlarmId id, std::uint64_t tick);

  // ---- Failover tier (DESIGN.md §10) ----
  /// Arms crash-recovery: every shard gets a durability log (checkpoint +
  /// journal or redo ledger per `config`) and a baseline tick-0 checkpoint
  /// is written immediately, so a crash before the first periodic
  /// checkpoint still recovers. The server keeps the plan and is its only
  /// reader: begin_failover_tick applies it, and everything else asks the
  /// accessors below. The tick pipeline calls begin_failover_tick so the
  /// orchestration order is visible in one place.
  void enable_failover(const failover::FailoverConfig& config,
                       failover::CrashPlan plan);
  /// Whether enable_failover has been called.
  bool failover_armed() const { return failover_.has_value(); }
  /// Whether the shard is currently crashed (clients must not contact it).
  /// Only the serial phase changes the answer.
  bool shard_down(std::size_t shard) const {
    return failover_.has_value() && failover_->logs[shard].down;
  }
  /// Whether the shard crashed at exactly `tick` and is still down.
  bool shard_crashed_at(std::size_t shard, std::uint64_t tick) const {
    return shard_down(shard) && failover_->logs[shard].crash_tick == tick;
  }

  /// Serial-phase tick prologue: recovers every shard whose downtime
  /// window ends at `tick`, then crashes every shard whose window begins
  /// at `tick`. Runs before the tick's churn so deferred-churn bookkeeping
  /// sees the final up/down state.
  void begin_failover_tick(std::uint64_t tick);
  /// Writes a checkpoint for every *up* shard when `tick` lands on the
  /// configured cadence (down shards checkpoint again after recovery at
  /// the next due tick). Serial phase, after churn; the shards checkpoint
  /// in parallel on at most `threads` threads (ParallelTickExecutor::run).
  void take_due_checkpoints(std::uint64_t tick, std::size_t threads = 1);
  /// End-of-run epilogue: recovers every still-down shard at tick `ticks`
  /// so buffered reports can flush through it. Returns the number of
  /// shards recovered.
  std::size_t finish_failover(std::uint64_t ticks);
  /// Compacts every shard's removal graveyard against the pending-stamp
  /// watermark (see sim::Server::compact_graveyard); returns total tombs
  /// dropped. Serial phase.
  std::size_t compact_graveyards(std::uint64_t watermark);

  // ---- Cluster control / inspection ----
  /// Declares which shard the calling thread is processing; every
  /// subsequent client-facing call on this thread must target it. The
  /// sharded run mode calls this once per (thread, shard group).
  void set_active_shard(std::size_t shard);

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t subscriber_count() const { return sessions_.size(); }
  const ShardMap& map() const { return map_; }
  const alarms::AlarmStore& shard_store(std::size_t shard) const;
  const sim::Metrics& shard_metrics(std::size_t shard) const;
  const sim::Server& shard_server(std::size_t shard) const;

  /// All shards' metrics merged in stable shard order.
  sim::Metrics merged_metrics() const;
  /// All shards' trigger logs concatenated and sorted into the global
  /// (tick, subscriber, alarm) order.
  std::vector<alarms::TriggerEvent> merged_trigger_log() const;

 private:
  static constexpr std::size_t kNoShard = static_cast<std::size_t>(-1);

  /// One shard's complete server state; never moved (the Server holds
  /// references into its siblings).
  struct Shard {
    Shard(std::vector<alarms::SpatialAlarm> slice,
          const grid::GridOverlay& grid, const geo::Rect& extent,
          std::size_t rtree_node_capacity);
    alarms::AlarmStore store;
    sim::Metrics metrics;
    sim::Server server;
  };

  /// A subscriber's cluster-side session: its current owning shard and the
  /// cumulative set of alarms already fired for it (carried across shard
  /// boundaries by the handoff).
  struct Session {
    std::size_t shard = kNoShard;
    std::vector<alarms::AlarmId> fired;
  };

  /// One shard's durability state (failover tier). Touched from the
  /// parallel path only by the thread holding the shard (spent-record
  /// appends), like the shard's metrics; everything else is serial-phase.
  struct ShardLog {
    /// Last encoded checkpoint (tick-0 baseline until the first periodic
    /// one); recovery decodes exactly these bytes.
    std::vector<std::uint8_t> checkpoint;
    /// Append-only journal of encoded post-checkpoint mutations
    /// (journal mode); truncated at each checkpoint.
    std::vector<std::vector<std::uint8_t>> journal;
    /// Upstream churn redo ledger (journal-less mode): the churn source's
    /// own post-checkpoint install/remove record, kept decoded because it
    /// is not shard-written durable state (and therefore not charged as
    /// journal bytes); truncated at each checkpoint.
    std::vector<wire::JournalRecordMsg> redo;
    /// Churn that arrived while the shard was down, applied (at original
    /// ticks) right after recovery.
    std::vector<wire::JournalRecordMsg> deferred;
    std::uint64_t crash_tick = 0;
    bool down = false;
  };

  struct FailoverState {
    FailoverState(const failover::FailoverConfig& c, failover::CrashPlan p,
                  std::size_t shard_count)
        : config(c), plan(std::move(p)), logs(shard_count) {}
    failover::FailoverConfig config;
    failover::CrashPlan plan;
    std::vector<ShardLog> logs;
  };

  /// Journals each fired alarm as spent, then adds it to the session.
  void record_fired(alarms::SubscriberId s, std::size_t shard,
                    std::uint64_t tick,
                    const std::vector<alarms::AlarmId>& fired);
  void crash_shard(std::size_t shard, std::uint64_t tick);
  void recover_shard(std::size_t shard, std::uint64_t tick);
  void take_checkpoint(std::size_t shard, std::uint64_t tick);
  /// Appends a churn record durably for the shard (journal bytes in
  /// journal mode, redo ledger otherwise). No-op without failover.
  void append_churn(std::size_t shard, const wire::JournalRecordMsg& rec);
  /// Journals one (alarm, subscriber) spent mark for the shard. No-op
  /// without failover or in journal-less mode (re-registration rebuilds
  /// spent state there). Parallel-path safe for the shard's owning thread.
  void append_spent(std::size_t shard, std::uint64_t tick,
                    alarms::AlarmId id, alarms::SubscriberId s);

  const grid::GridOverlay& grid_;
  ShardMap map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Session> sessions_;
  std::optional<FailoverState> failover_;
  /// Tick being processed, set by begin_failover_tick; gives tick-less
  /// paths (handoff spent marks) a deterministic journal timestamp.
  std::uint64_t fo_tick_ = 0;
};

}  // namespace salarm::cluster
