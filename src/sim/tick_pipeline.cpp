#include "sim/tick_pipeline.h"

#include <algorithm>
#include <numeric>

#include "common/parallel_executor.h"

namespace salarm::sim {

TickPipeline::TickPipeline(mobility::PositionSource& source,
                           cluster::ShardedServer& server,
                           net::ClientLink& link,
                           strategies::ProcessingStrategy& strategy,
                           std::size_t ticks, std::size_t threads,
                           dynamics::AlarmScheduler* scheduler,
                           PhaseObserver observer)
    : source_(source), server_(server), link_(link), strategy_(strategy),
      ticks_(ticks), scheduler_(scheduler), observer_(std::move(observer)),
      threads_(threads), groups_(server.shard_count()),
      order_(server.shard_count()) {}

void TickPipeline::fan_out(std::uint64_t tick) {
  const auto& samples = source_.samples();
  for (auto& group : groups_) group.clear();
  for (mobility::VehicleId v = 0; v < samples.size(); ++v) {
    groups_[server_.map().shard_of(samples[v].pos)].push_back(v);
  }
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t na = groups_[a].size();
    const std::size_t nb = groups_[b].size();
    return na != nb ? na > nb : a < b;
  });
  // Task k runs shard order_[k]: it declares its shard active and then
  // touches only that shard's state plus the sessions of its own
  // subscribers — the determinism contract of cluster/sharded_server.h —
  // so the claim order changes no result.
  ParallelTickExecutor::shared().run(
      order_.size(),
      [&](std::size_t k) {
        const std::size_t i = order_[k];
        server_.set_active_shard(i);
        if (tick == 0) {
          for (const mobility::VehicleId v : groups_[i]) {
            strategy_.initialize(v, samples[v]);
          }
        } else {
          for (const mobility::VehicleId v : groups_[i]) {
            strategy_.on_tick(v, samples[v], tick);
          }
        }
      },
      threads_);
}

void TickPipeline::run() {
  fan_out(0);
  for (std::size_t t = 1; t < ticks_; ++t) {
    const auto tick = static_cast<std::uint64_t>(t);
    source_.step();
    // 1. Failover: shards scheduled to recover at this tick restore
    // checkpoint + journal (or redo + re-registration) first, then shards
    // scheduled to crash lose their volatile state — so the churn below
    // sees the tick's final up/down picture and defers accordingly.
    if (server_.failover_armed()) {
      enter(TickPhase::kFailoverBegin, tick);
      server_.begin_failover_tick(tick);
    }
    // 2. Churn: installs replicate to every extent-intersecting shard and
    // queue invalidation pushes before any subscriber of this tick is
    // processed; replicas owned by a crashed shard are deferred until its
    // recovery.
    if (scheduler_ != nullptr) {
      enter(TickPhase::kChurn, tick);
      scheduler_->for_each_due(tick, [&](const dynamics::ChurnEvent& e) {
        if (e.kind == dynamics::ChurnEvent::Kind::kInstall) {
          server_.install_alarm(e.alarm, tick);
        } else {
          server_.remove_alarm(e.id, tick);
        }
      });
    }
    // 3. Periodic durability: up shards checkpoint on the configured
    // cadence (capturing this tick's churn), truncating their journals.
    if (server_.failover_armed()) {
      enter(TickPhase::kCheckpoints, tick);
      server_.take_due_checkpoints(tick, threads_);
    }
    // 4. Graveyard maintenance: tombs no pending buffered report can
    // observe are dropped. The watermark is read before the channel flush
    // below, which is merely conservative (flushed stamps are >= it).
    if (scheduler_ != nullptr) {
      enter(TickPhase::kGraveyard, tick);
      (void)server_.compact_graveyards(link_.min_pending_stamp(tick));
    }
    // 5. Channel: outage state machines advance in subscriber chunks on
    // the pool, shard crashes void their clients' grants, and reconnect
    // flushes, run serially in subscriber order, see the post-churn alarm
    // state of this tick (no-op on a perfect channel). Per-subscriber
    // fault streams keep the in-tick draws independent of thread count.
    enter(TickPhase::kChannel, tick);
    link_.begin_tick(tick, source_.samples(), threads_);
    // 6. The parallel part of the tick.
    enter(TickPhase::kSubscribers, tick);
    fan_out(tick);
  }
  // End-of-run epilogue: shards still down when the trace ends recover
  // now, so the flush below can deliver every buffered report before the
  // run is scored.
  if (server_.failover_armed()) {
    (void)server_.finish_failover(static_cast<std::uint64_t>(ticks_));
  }
  link_.finish();
}

}  // namespace salarm::sim
