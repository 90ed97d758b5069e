#include "sim/simulation.h"

#include <chrono>

#include "cluster/sharded_server.h"
#include "common/error.h"

namespace salarm::sim {

Simulation::Simulation(mobility::PositionSource& source,
                       const alarms::AlarmStore& store,
                       const grid::GridOverlay& grid, std::size_t ticks)
    : source_(source), store_(store), grid_(grid), ticks_(ticks) {
  SALARM_REQUIRE(ticks >= 2, "simulation needs at least two ticks");
  SALARM_REQUIRE(grid.universe().contains(source.extent()),
                 "grid universe must cover the position source's extent");
}

const std::vector<alarms::TriggerEvent>& Simulation::oracle() {
  if (!oracle_.has_value()) {
    if (scheduler_.has_value()) {
      // Churn-aware ground truth: replay the identical timeline into a
      // private copy of the initial alarm set (no server, no metrics).
      alarms::AlarmStore replay(store_.rtree_node_capacity());
      replay.install_bulk(store_.all());
      scheduler_->reset();
      oracle_ = ground_truth_triggers(
          source_, replay, ticks_,
          [&](std::size_t t, alarms::AlarmStore& store) {
            scheduler_->for_each_due(
                static_cast<std::uint64_t>(t),
                [&](const dynamics::ChurnEvent& e) {
                  if (e.kind == dynamics::ChurnEvent::Kind::kInstall) {
                    store.install(e.alarm);
                  } else {
                    (void)store.uninstall(e.id);
                  }
                });
          });
    } else {
      oracle_ = ground_truth_triggers(source_, store_, ticks_);
    }
  }
  return *oracle_;
}

void Simulation::set_churn(const dynamics::ChurnConfig& config,
                           std::uint64_t seed) {
  scheduler_.emplace(config, grid_.universe(), store_.all(), ticks_, seed);
  oracle_.reset();  // ground truth depends on the timeline
}

void Simulation::set_channel(const net::ChannelConfig& config,
                             std::uint64_t seed) {
  // Validate eagerly (FaultyChannel's preconditions) so a bad sweep config
  // fails at setup, not mid-run.
  net::FaultyChannel probe(config, seed, 1);
  (void)probe;
  channel_config_ = config;
  channel_seed_ = seed;
  // The oracle is channel-independent: faults change the protocol work, not
  // the ground truth, so the cached oracle stays valid on purpose.
}

void Simulation::set_failover(const failover::FailoverConfig& config,
                              std::uint64_t seed) {
  SALARM_REQUIRE(config.crash_per_tick >= 0.0 && config.crash_per_tick < 1.0,
                 "crash_per_tick must be in [0, 1)");
  SALARM_REQUIRE(config.crash_mean_down_ticks >= 1.0,
                 "crash_mean_down_ticks must be >= 1");
  SALARM_REQUIRE(config.checkpoint_interval_ticks >= 1,
                 "checkpoint_interval_ticks must be >= 1");
  failover_config_ = config;
  failover_seed_ = seed;
  // Crashes are like channel faults: they change the recovery work, not
  // the ground truth, so the cached oracle stays valid on purpose.
}

RunResult Simulation::run(const StrategyFactory& factory) {
  return run_sharded(factory, {.shards = 1, .threads = 1});
}

RunResult Simulation::run_sharded(const StrategyFactory& factory,
                                  const ShardedRunOptions& options) {
  const auto& expected = oracle();  // ensure cached before timing the run

  source_.reset();

  RunResult result;
  result.ticks = ticks_;
  result.subscribers = source_.vehicle_count();
  result.duration_s = duration_s();

  cluster::ShardedServer server(store_, grid_, options.shards,
                                source_.vehicle_count());
  if (scheduler_.has_value()) {
    server.enable_dynamics();
    scheduler_->reset();
  }
  // Crash-recovery: the plan is drawn fresh per run from the armed seed —
  // a pure function of (seed, shard count, ticks) — so every strategy
  // faces the identical crash schedule and replays are bit-identical. The
  // server keeps it; the link and the pipeline ask the server.
  if (failover_config_.has_value()) {
    server.enable_failover(
        *failover_config_,
        failover::CrashPlan(*failover_config_, server.shard_count(), ticks_,
                            failover_seed_));
  }
  net::ClientLink link(server, channel_config_, channel_seed_);
  const auto strategy = factory(link);
  result.strategy = std::string(strategy->name());

  TickPipeline pipeline(source_, server, link, *strategy, ticks_,
                        options.threads,
                        scheduler_.has_value() ? &*scheduler_ : nullptr,
                        phase_observer_);
  const auto start = std::chrono::steady_clock::now();
  pipeline.run();
  const auto end = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(end - start).count();

  result.metrics = server.merged_metrics();
  result.metrics.merge(link.link_metrics());
  // Canonical (tick, subscriber, alarm) order, produced in exactly one
  // place for every run mode (cluster::ShardedServer::merged_trigger_log).
  result.trigger_log = server.merged_trigger_log();
  result.accuracy = compare_triggers(expected, result.trigger_log);
  return result;
}

}  // namespace salarm::sim
