#include "cluster/sharded_server.h"

#include <algorithm>
#include <iterator>

#include "common/error.h"
#include "common/parallel_executor.h"
#include "saferegion/wire_format.h"

namespace salarm::cluster {

namespace {
// Shard the calling thread is currently processing. Thread-local rather
// than a member so worker threads of the parallel executor can each hold a
// different active shard on the same ShardedServer.
thread_local std::size_t active_shard = static_cast<std::size_t>(-1);
}  // namespace

ShardedServer::Shard::Shard(std::vector<alarms::SpatialAlarm> slice,
                            const grid::GridOverlay& grid,
                            const geo::Rect& extent,
                            std::size_t rtree_node_capacity)
    : store(rtree_node_capacity), server(store, grid, metrics, extent) {
  store.install_bulk(std::move(slice));
}

ShardedServer::ShardedServer(const alarms::AlarmStore& global_alarms,
                             const grid::GridOverlay& grid,
                             std::size_t shard_count,
                             std::size_t subscriber_count)
    : grid_(grid), map_(grid, shard_count), sessions_(subscriber_count) {
  shards_.reserve(map_.shard_count());
  for (std::size_t i = 0; i < map_.shard_count(); ++i) {
    // Replicate every alarm whose region (closed) intersects the shard
    // extent: shard-local cell and point queries are closed too, so the
    // slice answers them exactly as the global store would. The slice
    // inherits the source store's index node capacity so node-access
    // accounting is comparable.
    std::vector<alarms::SpatialAlarm> slice;
    for (const alarms::SpatialAlarm& a : global_alarms.all()) {
      if (a.region.intersects(map_.shard_extent(i))) slice.push_back(a);
    }
    shards_.push_back(std::make_unique<Shard>(
        std::move(slice), grid, map_.shard_extent(i),
        global_alarms.rtree_node_capacity()));
  }
}

void ShardedServer::set_active_shard(std::size_t shard) {
  SALARM_REQUIRE(shard < shards_.size(), "no such shard");
  active_shard = shard;
}

sim::Metrics& ShardedServer::metrics() {
  SALARM_ASSERT(active_shard < shards_.size(),
                "no active shard on this thread");
  return shards_[active_shard]->metrics;
}

sim::Server& ShardedServer::contact(alarms::SubscriberId s,
                                    geo::Point position) {
  const std::size_t owner = map_.shard_of(position);
  SALARM_ASSERT(owner == active_shard,
                "position-taking call outside the active shard");
  SALARM_ASSERT(!shard_down(owner),
                "position-taking call reached a crashed shard (degraded-mode "
                "clients must buffer instead)");
  SALARM_REQUIRE(s < sessions_.size(), "subscriber id out of range");
  Session& session = sessions_[s];
  Shard& shard = *shards_[owner];
  if (session.shard != owner) {
    if (session.shard != kNoShard) {
      // Boundary crossing: the old owner hands the session over. The
      // message is charged to the receiving shard — the only Metrics this
      // thread may touch right now.
      ++shard.metrics.handoff_messages;
      shard.metrics.handoff_bytes +=
          wire::handoff_message_size(session.fired.size());
      // Mark every carried fire spent unconditionally: the id may be
      // uninstalled here (or never replicated here), but the buffered-
      // report graveyard path (handle_buffered_update) still consults
      // spent state for removed alarms, so the trigger history must
      // survive the crossing. Spent state is a pure key set — marking an
      // absent id is cheap and safe.
      for (const alarms::AlarmId id : session.fired) {
        shard.store.mark_spent(id, s);
        append_spent(owner, fo_tick_, id, s);
      }
    }
    session.shard = owner;
  }
  return shard.server;
}

std::vector<alarms::AlarmId> ShardedServer::handle_position_update(
    alarms::SubscriberId s, geo::Point position, std::uint64_t tick) {
  std::vector<alarms::AlarmId> fired =
      contact(s, position).handle_position_update(s, position, tick);
  record_fired(s, map_.shard_of(position), tick, fired);
  return fired;
}

std::vector<alarms::AlarmId> ShardedServer::handle_buffered_update(
    alarms::SubscriberId s, geo::Point position, std::uint64_t stamp_tick) {
  // Serial phase only (reconnect flushes run between ticks on the main
  // thread): the call claims the owning shard itself, so buffered reports
  // replay shard handoffs deterministically along the client's path.
  set_active_shard(map_.shard_of(position));
  std::vector<alarms::AlarmId> fired =
      contact(s, position).handle_buffered_update(s, position, stamp_tick);
  record_fired(s, map_.shard_of(position), stamp_tick, fired);
  return fired;
}

void ShardedServer::record_fired(alarms::SubscriberId s, std::size_t shard,
                                 std::uint64_t tick,
                                 const std::vector<alarms::AlarmId>& fired) {
  for (const alarms::AlarmId id : fired) append_spent(shard, tick, id, s);
  Session& session = sessions_[s];
  session.fired.insert(session.fired.end(), fired.begin(), fired.end());
}

std::vector<dynamics::InvalidationPush> ShardedServer::take_invalidations(
    alarms::SubscriberId s) {
  std::vector<dynamics::InvalidationPush> out;
  for (auto& shard : shards_) {
    auto pushes = shard->server.take_invalidations(s);
    out.insert(out.end(), std::make_move_iterator(pushes.begin()),
               std::make_move_iterator(pushes.end()));
  }
  return out;
}

void ShardedServer::enable_dynamics() {
  for (auto& shard : shards_) shard->server.enable_dynamics(sessions_.size());
}

void ShardedServer::install_alarm(const alarms::SpatialAlarm& alarm,
                                  std::uint64_t tick) {
  // Same replication rule as the initial slices: every shard whose extent
  // (closed) intersects the region gets a replica. A grant never outgrows
  // its shard's extent, so the install reaches every shard that could hold
  // an affected grant; the per-shard invalidation queries run in stable
  // shard order, keeping sharded churn bit-identical at any thread count.
  wire::JournalRecordMsg rec;
  rec.kind = wire::JournalRecordMsg::Kind::kInstall;
  rec.tick = tick;
  rec.alarm = alarm;
  rec.alarm_id = alarm.id;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!alarm.region.intersects(map_.shard_extent(i))) continue;
    if (shard_down(i)) {
      // The replica's owner is crashed: the install is deferred and
      // applied — at this original tick — right after recovery. No client
      // over the shard can observe the gap (they are all in degraded mode,
      // buffering reports that flush only once the shard is back).
      failover_->logs[i].deferred.push_back(rec);
      continue;
    }
    shards_[i]->server.install_alarm(alarm, tick);
    append_churn(i, rec);
  }
}

void ShardedServer::remove_alarm(alarms::AlarmId id, std::uint64_t tick) {
  wire::JournalRecordMsg rec;
  rec.kind = wire::JournalRecordMsg::Kind::kRemove;
  rec.tick = tick;
  rec.alarm_id = id;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shard_down(i)) {
      // A crashed shard's store is empty, so installed() cannot tell
      // whether it held a replica — defer unconditionally; the deferred
      // remove no-ops at recovery if the restored store lacks the id.
      failover_->logs[i].deferred.push_back(rec);
      continue;
    }
    if (shards_[i]->server.remove_alarm(id, tick)) append_churn(i, rec);
  }
}

void ShardedServer::enable_failover(const failover::FailoverConfig& config,
                                    failover::CrashPlan plan) {
  SALARM_REQUIRE(!failover_.has_value(), "failover already enabled");
  SALARM_REQUIRE(plan.shard_count() == shards_.size(),
                 "crash plan sized for a different shard count");
  failover_.emplace(config, std::move(plan), shards_.size());
  // Baseline durability: a crash before the first periodic checkpoint must
  // still recover, so every shard checkpoints its initial slice now.
  for (std::size_t i = 0; i < shards_.size(); ++i) take_checkpoint(i, 0);
}

void ShardedServer::begin_failover_tick(std::uint64_t tick) {
  SALARM_REQUIRE(failover_.has_value(), "failover is not enabled");
  fo_tick_ = tick;
  const failover::CrashPlan& plan = failover_->plan;
  // Recoveries strictly before crashes: windows are non-adjacent (a shard
  // never crashes on its recovery tick), so the order only matters for
  // keeping the sweep deterministic.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (plan.recovers_at(i, tick)) recover_shard(i, tick);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (plan.crashes_at(i, tick)) crash_shard(i, tick);
  }
}

void ShardedServer::take_due_checkpoints(std::uint64_t tick,
                                         std::size_t threads) {
  SALARM_REQUIRE(failover_.has_value(), "failover is not enabled");
  if (tick == 0 || tick % failover_->config.checkpoint_interval_ticks != 0) {
    return;
  }
  // take_checkpoint touches only its own shard's store, server, log and
  // metrics, so the up shards checkpoint in parallel.
  ParallelTickExecutor::shared().run(
      shards_.size(),
      [&](std::size_t i) {
        if (!failover_->logs[i].down) take_checkpoint(i, tick);
      },
      threads);
}

std::size_t ShardedServer::finish_failover(std::uint64_t ticks) {
  SALARM_REQUIRE(failover_.has_value(), "failover is not enabled");
  std::size_t recovered = 0;
  fo_tick_ = ticks;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!failover_->logs[i].down) continue;
    recover_shard(i, ticks);
    ++recovered;
  }
  return recovered;
}

std::size_t ShardedServer::compact_graveyards(std::uint64_t watermark) {
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    // A crashed shard's graveyard is already empty; its restored one is
    // compacted on the next serial sweep after recovery.
    if (shard_down(i)) continue;
    dropped += shards_[i]->server.compact_graveyard(watermark);
  }
  return dropped;
}

void ShardedServer::crash_shard(std::size_t shard, std::uint64_t tick) {
  ShardLog& log = failover_->logs[shard];
  SALARM_ASSERT(!log.down, "crashing a shard that is already down");
  log.down = true;
  log.crash_tick = tick;
  shards_[shard]->server.crash();
  ++shards_[shard]->metrics.fo_crashes;
}

void ShardedServer::recover_shard(std::size_t shard, std::uint64_t tick) {
  ShardLog& log = failover_->logs[shard];
  SALARM_ASSERT(log.down, "recovering a shard that is not down");
  Shard& sh = *shards_[shard];
  log.down = false;

  // 1. Restore the checkpoint: the exact bytes written before the crash.
  sh.server.restore(wire::decode<wire::ShardCheckpointMsg>(log.checkpoint));

  if (failover_->config.journal) {
    // 2a. Journal mode: replay every post-checkpoint mutation in append
    // order from the shard's own durable log.
    for (const auto& bytes : log.journal) {
      sh.server.replay(wire::decode<wire::JournalRecordMsg>(bytes));
      ++sh.metrics.fo_journal_replays;
    }
  } else {
    // 2b. Journal-less mode: redo post-checkpoint churn from the upstream
    // ledger, then rebuild the trigger history from the clients — every
    // subscriber still owned by this shard re-registers, shipping its
    // carried fired list exactly like a session handoff would.
    for (const auto& rec : log.redo) {
      sh.server.replay(rec);
      ++sh.metrics.fo_redo_events;
    }
    for (alarms::SubscriberId s = 0; s < sessions_.size(); ++s) {
      const Session& session = sessions_[s];
      if (session.shard != shard) continue;
      ++sh.metrics.fo_reregistrations;
      sh.metrics.fo_reregistration_bytes +=
          wire::handoff_message_size(session.fired.size());
      for (const alarms::AlarmId id : session.fired) {
        sh.store.mark_spent(id, s);
      }
    }
  }

  // 3. Apply churn that arrived during the downtime window, at its
  // original ticks (the temporal filter of buffered reports depends on
  // them). This is the deferred events' first application on this shard,
  // so it runs through the normally-charged paths and is re-journaled for
  // crash-again safety.
  for (const auto& rec : log.deferred) {
    if (rec.kind == wire::JournalRecordMsg::Kind::kInstall) {
      sh.server.install_alarm(rec.alarm, rec.tick);
    } else if (!sh.server.remove_alarm(rec.alarm_id, rec.tick)) {
      continue;  // replica never existed here; nothing to journal
    }
    append_churn(shard, rec);
    ++sh.metrics.fo_redo_events;
  }
  log.deferred.clear();

  ++sh.metrics.fo_recoveries;
  sh.metrics.fo_recovery_ticks += tick - log.crash_tick;
}

void ShardedServer::take_checkpoint(std::size_t shard, std::uint64_t tick) {
  Shard& sh = *shards_[shard];
  ShardLog& log = failover_->logs[shard];
  wire::ShardCheckpointMsg cp = sh.server.checkpoint(tick);
  cp.shard = static_cast<std::uint32_t>(shard);
  log.checkpoint = wire::encode(cp);
  // The checkpoint supersedes everything logged before it.
  log.journal.clear();
  log.redo.clear();
  ++sh.metrics.fo_checkpoints;
  sh.metrics.fo_checkpoint_bytes += log.checkpoint.size();
}

void ShardedServer::append_churn(std::size_t shard,
                                 const wire::JournalRecordMsg& rec) {
  if (!failover_.has_value()) return;
  ShardLog& log = failover_->logs[shard];
  if (failover_->config.journal) {
    std::vector<std::uint8_t> bytes = wire::encode(rec);
    ++shards_[shard]->metrics.fo_journal_records;
    shards_[shard]->metrics.fo_journal_bytes += bytes.size();
    log.journal.push_back(std::move(bytes));
  } else {
    // Upstream ledger: the churn source already holds this record, so the
    // shard writes (and pays for) nothing.
    log.redo.push_back(rec);
  }
}

void ShardedServer::append_spent(std::size_t shard, std::uint64_t tick,
                                 alarms::AlarmId id, alarms::SubscriberId s) {
  if (!failover_.has_value() || !failover_->config.journal) {
    // Journal-less recovery rebuilds spent state from client
    // re-registration; there is nothing durable to write here.
    return;
  }
  wire::JournalRecordMsg rec;
  rec.kind = wire::JournalRecordMsg::Kind::kSpent;
  rec.tick = tick;
  rec.alarm_id = id;
  rec.subscriber = s;
  std::vector<std::uint8_t> bytes = wire::encode(rec);
  ++shards_[shard]->metrics.fo_journal_records;
  shards_[shard]->metrics.fo_journal_bytes += bytes.size();
  failover_->logs[shard].journal.push_back(std::move(bytes));
}

const alarms::AlarmStore& ShardedServer::shard_store(std::size_t shard) const {
  SALARM_REQUIRE(shard < shards_.size(), "no such shard");
  return shards_[shard]->store;
}

const sim::Metrics& ShardedServer::shard_metrics(std::size_t shard) const {
  SALARM_REQUIRE(shard < shards_.size(), "no such shard");
  return shards_[shard]->metrics;
}

const sim::Server& ShardedServer::shard_server(std::size_t shard) const {
  SALARM_REQUIRE(shard < shards_.size(), "no such shard");
  return shards_[shard]->server;
}

sim::Metrics ShardedServer::merged_metrics() const {
  sim::Metrics merged;
  for (const auto& shard : shards_) merged.merge(shard->metrics);
  return merged;
}

std::vector<alarms::TriggerEvent> ShardedServer::merged_trigger_log() const {
  std::vector<alarms::TriggerEvent> log;
  for (const auto& shard : shards_) {
    const auto& shard_log = shard->server.trigger_log();
    log.insert(log.end(), shard_log.begin(), shard_log.end());
  }
  std::sort(log.begin(), log.end());
  return log;
}

}  // namespace salarm::cluster
