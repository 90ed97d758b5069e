// Unified tick-pipeline tests (DESIGN.md §11).
//
// The golden tests replicate the historical monolithic run loop — the one
// Simulation::run owned before every mode was routed through TickPipeline —
// verbatim against a self-contained workload, and assert the pipeline's
// {shards = 1, threads = 1} run is bit-identical to it: every metric
// counter, every RunningStat moment, every trigger event. The phase tests
// pin the documented serial-phase order (and its tier gating) through the
// PhaseObserver hook; the ordering tests pin the canonical (tick,
// subscriber, alarm) trigger-log contract for both run modes; the claim-
// order tests pin the largest-group-first fan-out and its bit-identity on
// strongly skewed groups.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "bench/random_waypoint.h"
#include "cluster/shard_map.h"
#include "cluster/sharded_server.h"
#include "core/experiment.h"
#include "dynamics/churn.h"
#include "failover/crash_plan.h"
#include "grid/grid_overlay.h"
#include "net/link.h"
#include "sim/server.h"
#include "sim/simulation.h"
#include "sim/tick_pipeline.h"
#include "strategies/rect_region_strategy.h"
#include "strategies/safe_period.h"
#include "strategies/strategy.h"

namespace salarm {
namespace {

// ---------------------------------------------------------------------------
// Golden workload: self-contained (source, store, grid, simulation) so the
// reference loop below can drive the identical trace directly.
// ---------------------------------------------------------------------------

constexpr std::size_t kVehicles = 100;
constexpr std::size_t kTicks = 200;
constexpr std::uint64_t kChurnSeed = 97;
constexpr std::uint64_t kChannelSeed = 101;

struct GoldenWorkload {
  GoldenWorkload()
      : universe(0.0, 0.0, 6000.0, 6000.0),
        grid(universe, 4, 4),
        source(universe, waypoint_config()),
        sim(source, store, grid, kTicks) {
    alarms::AlarmWorkloadConfig workload;
    workload.alarm_count = 500;
    workload.subscriber_count = kVehicles;
    Rng rng(12345);
    store.install_bulk(
        alarms::generate_alarm_workload(workload, universe, rng));
  }

  static mobility::RandomWaypointConfig waypoint_config() {
    mobility::RandomWaypointConfig cfg;
    cfg.vehicle_count = kVehicles;
    cfg.tick_seconds = 1.0;
    cfg.seed = 4242;
    return cfg;
  }

  sim::Simulation::StrategyFactory rect() const {
    return [](net::ClientLink& link) {
      return std::make_unique<strategies::RectRegionStrategy>(
          link, saferegion::MotionModel(1.0, 32), saferegion::MwpsrOptions{});
    };
  }

  sim::Simulation::StrategyFactory safe_period() const {
    const double bound = source.max_speed_bound();
    return [bound](net::ClientLink& link) {
      return std::make_unique<strategies::SafePeriodStrategy>(
          link, bound, /*tick_seconds=*/1.0);
    };
  }

  geo::Rect universe;
  grid::GridOverlay grid;
  mobility::RandomWaypointSource source;
  alarms::AlarmStore store;
  sim::Simulation sim;
};

/// The pre-pipeline Simulation::run body, preserved verbatim (modulo the
/// oracle scoring, which the caller does not need): a serial churn +
/// graveyard + channel prologue per tick, then the in-order subscriber
/// loop, driving a one-shard cluster::ShardedServer (the only server a
/// ClientLink accepts). This is the behavioral baseline the unified
/// pipeline must reproduce bit-for-bit.
sim::RunResult reference_monolithic_run(
    mobility::PositionSource& source, alarms::AlarmStore& store,
    const grid::GridOverlay& grid, std::size_t ticks,
    const sim::Simulation::StrategyFactory& factory,
    const net::ChannelConfig& channel, std::uint64_t channel_seed,
    dynamics::AlarmScheduler* churn) {
  store.reset_triggers();
  store.reset_index_node_accesses();
  source.reset();

  sim::RunResult result;
  cluster::ShardedServer server(store, grid, /*shard_count=*/1,
                                source.vehicle_count());
  server.set_active_shard(0);
  if (churn != nullptr) {
    server.enable_dynamics();
    churn->reset();
  }
  net::ClientLink link(server, channel, channel_seed);
  const auto strategy = factory(link);
  result.strategy = std::string(strategy->name());

  for (mobility::VehicleId v = 0; v < source.samples().size(); ++v) {
    strategy->initialize(v, source.samples()[v]);
  }
  for (std::size_t t = 1; t < ticks; ++t) {
    source.step();
    if (churn != nullptr) {
      churn->for_each_due(
          static_cast<std::uint64_t>(t), [&](const dynamics::ChurnEvent& e) {
            if (e.kind == dynamics::ChurnEvent::Kind::kInstall) {
              server.install_alarm(e.alarm, t);
            } else {
              (void)server.remove_alarm(e.id, t);
            }
          });
      (void)server.compact_graveyards(link.min_pending_stamp(t));
    }
    link.begin_tick(t, {});
    const auto& samples = source.samples();
    for (mobility::VehicleId v = 0; v < samples.size(); ++v) {
      strategy->on_tick(v, samples[v], t);
    }
  }
  link.finish();

  result.metrics = server.shard_metrics(0);
  result.metrics.merge(link.link_metrics());
  result.trigger_log = server.shard_server(0).trigger_log();
  std::sort(result.trigger_log.begin(), result.trigger_log.end());
  store.reset_triggers();
  return result;
}

/// Bit-identity across every counter and distribution a run reports.
void expect_bit_identical(const sim::RunResult& ref,
                          const sim::RunResult& got) {
  EXPECT_EQ(got.strategy, ref.strategy);
  EXPECT_EQ(got.trigger_log, ref.trigger_log);
  EXPECT_EQ(got.metrics, ref.metrics);
}

TEST(PipelineGoldenTest, StaticRunMatchesHistoricalMonolithicLoop) {
  GoldenWorkload w;
  for (const auto& factory : {w.rect(), w.safe_period()}) {
    const auto ref = reference_monolithic_run(
        w.source, w.store, w.grid, kTicks, factory, net::ChannelConfig{},
        /*channel_seed=*/0, /*churn=*/nullptr);
    const auto got = w.sim.run(factory);
    expect_bit_identical(ref, got);
    // The pipeline run is additionally scored against the oracle — the
    // degenerate one-shard cluster must stay 100% accurate.
    EXPECT_EQ(got.accuracy.missed, 0u);
    EXPECT_EQ(got.accuracy.spurious, 0u);
    EXPECT_EQ(got.accuracy.late, 0u);
    EXPECT_GT(got.accuracy.expected, 0u);
  }
}

TEST(PipelineGoldenTest, ChurnAndFaultyChannelRunMatchesHistoricalLoop) {
  GoldenWorkload w;

  dynamics::ChurnConfig churn;
  churn.installs_per_tick = 0.5;
  churn.removes_per_tick = 0.25;
  churn.subscriber_count = kVehicles;

  net::ChannelConfig channel;
  channel.uplink_loss = 0.1;
  channel.downlink_loss = 0.1;
  channel.duplicate_rate = 0.05;
  channel.outage_start_per_tick = 0.01;
  channel.outage_mean_ticks = 3.0;

  // Snapshot the initial alarm set before arming churn, then build a twin
  // scheduler from the identical (config, universe, alarms, ticks, seed)
  // inputs — AlarmScheduler construction is a pure function of them, so
  // the twin replays the exact timeline the simulation precomputed.
  const std::vector<alarms::SpatialAlarm> initial = w.store.all();
  w.sim.set_churn(churn, kChurnSeed);
  w.sim.set_channel(channel, kChannelSeed);
  dynamics::AlarmScheduler twin(churn, w.universe, initial, kTicks,
                                kChurnSeed);

  const auto factory = w.rect();
  const auto ref = reference_monolithic_run(w.source, w.store, w.grid, kTicks,
                                            factory, channel, kChannelSeed,
                                            &twin);
  const auto got = w.sim.run(factory);
  expect_bit_identical(ref, got);
  EXPECT_GT(got.metrics.alarms_installed, 0u);
  EXPECT_GT(got.metrics.net_retransmissions, 0u);
  EXPECT_EQ(got.accuracy.missed, 0u);
  EXPECT_EQ(got.accuracy.spurious, 0u);
  EXPECT_EQ(got.accuracy.late, 0u);
}

// ---------------------------------------------------------------------------
// Serial-phase ordering (the PhaseObserver hook).
// ---------------------------------------------------------------------------

core::ExperimentConfig phase_config(std::uint64_t seed) {
  core::ExperimentConfig cfg;
  cfg.universe_km = 6.0;
  cfg.vehicles = 60;
  cfg.minutes = 2.0;
  cfg.alarm_count = 400;
  cfg.public_percent = 10.0;
  cfg.grid_cell_sqkm = 2.5;
  cfg.seed = seed;
  return cfg;
}

using PhaseTrace = std::vector<std::pair<sim::TickPhase, std::uint64_t>>;

TEST(PipelinePhaseOrderTest, AllTiersFireInDocumentedOrderEveryTick) {
  core::Experiment experiment(phase_config(17));
  experiment.enable_churn(experiment.churn_config(0.5, 0.25));
  net::ChannelConfig channel;
  channel.uplink_loss = 0.2;
  channel.downlink_loss = 0.2;
  channel.outage_start_per_tick = 0.01;
  channel.outage_mean_ticks = 3.0;
  experiment.enable_channel(channel);
  failover::FailoverConfig crashes;
  crashes.crash_per_tick = 0.03;
  crashes.crash_mean_down_ticks = 4.0;
  crashes.checkpoint_interval_ticks = 20;
  experiment.enable_failover(crashes);

  PhaseTrace trace;
  experiment.simulation().set_phase_observer(
      [&](sim::TickPhase phase, std::uint64_t tick) {
        trace.emplace_back(phase, tick);
      });
  const auto run = experiment.simulation().run_sharded(
      experiment.rect(saferegion::MotionModel(1.0, 32)),
      {.shards = 2, .threads = 1});
  experiment.simulation().set_phase_observer({});
  EXPECT_EQ(run.accuracy.missed, 0u);
  EXPECT_EQ(run.accuracy.spurious, 0u);

  const sim::TickPhase expected[] = {
      sim::TickPhase::kFailoverBegin, sim::TickPhase::kChurn,
      sim::TickPhase::kCheckpoints,   sim::TickPhase::kGraveyard,
      sim::TickPhase::kChannel,       sim::TickPhase::kSubscribers,
  };
  const std::size_t ticks = experiment.simulation().ticks();
  ASSERT_EQ(trace.size(), (ticks - 1) * std::size(expected));
  for (std::size_t t = 1; t < ticks; ++t) {
    for (std::size_t i = 0; i < std::size(expected); ++i) {
      const auto& [phase, tick] = trace[(t - 1) * std::size(expected) + i];
      ASSERT_EQ(phase, expected[i]) << "tick " << t << " slot " << i;
      ASSERT_EQ(tick, t) << "slot " << i;
    }
  }
}

TEST(PipelinePhaseOrderTest, UnarmedTiersAreSkippedEntirely) {
  // A static, perfect-channel, immortal run has only the channel phase and
  // the subscriber fan-out — the tier gating must not even announce the
  // others.
  core::Experiment experiment(phase_config(19));
  PhaseTrace trace;
  experiment.simulation().set_phase_observer(
      [&](sim::TickPhase phase, std::uint64_t tick) {
        trace.emplace_back(phase, tick);
      });
  (void)experiment.simulation().run(experiment.safe_period());
  experiment.simulation().set_phase_observer({});

  const std::size_t ticks = experiment.simulation().ticks();
  ASSERT_EQ(trace.size(), (ticks - 1) * 2);
  for (std::size_t t = 1; t < ticks; ++t) {
    EXPECT_EQ(trace[(t - 1) * 2].first, sim::TickPhase::kChannel);
    EXPECT_EQ(trace[(t - 1) * 2 + 1].first, sim::TickPhase::kSubscribers);
  }
}

// ---------------------------------------------------------------------------
// Canonical trigger-log order: every run mode reports (tick, subscriber,
// alarm) order, produced in exactly one place
// (cluster::ShardedServer::merged_trigger_log).
// ---------------------------------------------------------------------------

TEST(PipelineTriggerOrderTest, BothRunModesReportCanonicalOrder) {
  core::Experiment experiment(phase_config(23));
  const auto factory = experiment.rect(saferegion::MotionModel(1.0, 32));
  const auto mono = experiment.simulation().run(factory);
  const auto sharded = experiment.simulation().run_sharded(
      factory, {.shards = 3, .threads = 2});
  ASSERT_GT(mono.trigger_log.size(), 0u);
  EXPECT_TRUE(std::is_sorted(mono.trigger_log.begin(),
                             mono.trigger_log.end()));
  EXPECT_TRUE(std::is_sorted(sharded.trigger_log.begin(),
                             sharded.trigger_log.end()));
  // Sharding is exact: the merged log is the same canonical sequence.
  EXPECT_EQ(sharded.trigger_log, mono.trigger_log);
}

// ---------------------------------------------------------------------------
// Fan-out claim order and skew: the shard tasks are claimed largest group
// first, which changes which thread runs a shard but never a result.
// ---------------------------------------------------------------------------

/// Records, per tick, the subscribers in the order on_tick sees them.
class RecordingStrategy final : public strategies::ProcessingStrategy {
 public:
  RecordingStrategy(std::vector<std::vector<mobility::VehicleId>>& ticks,
                    std::size_t tick_count)
      : ticks_(ticks) {
    ticks_.assign(tick_count, {});
  }
  std::string_view name() const override { return "recording"; }
  void initialize(alarms::SubscriberId s,
                  const mobility::VehicleSample&) override {
    ticks_[0].push_back(s);
  }
  void on_tick(alarms::SubscriberId s, const mobility::VehicleSample&,
               std::uint64_t tick) override {
    ticks_[tick].push_back(s);
  }

 private:
  std::vector<std::vector<mobility::VehicleId>>& ticks_;
};

/// Vehicles roam only the west end of a 4-stripe, 8 km x 2 km universe, so
/// shard 0 holds most of them, shard 1 a few and shards 2 and 3 none.
struct SkewedWorkload {
  static constexpr std::size_t kSkewVehicles = 150;
  static constexpr std::size_t kSkewTicks = 120;

  SkewedWorkload()
      : universe(0.0, 0.0, 8000.0, 2000.0),
        grid(universe, 8, 2),
        source(geo::Rect(0.0, 0.0, 2600.0, 2000.0), waypoint_config()),
        sim(source, store, grid, kSkewTicks) {
    alarms::AlarmWorkloadConfig workload;
    workload.alarm_count = 300;
    workload.subscriber_count = kSkewVehicles;
    Rng rng(777);
    store.install_bulk(
        alarms::generate_alarm_workload(workload, universe, rng));
  }

  static mobility::RandomWaypointConfig waypoint_config() {
    mobility::RandomWaypointConfig cfg;
    cfg.vehicle_count = kSkewVehicles;
    cfg.tick_seconds = 1.0;
    cfg.seed = 9191;
    return cfg;
  }

  geo::Rect universe;
  grid::GridOverlay grid;
  mobility::RandomWaypointSource source;
  alarms::AlarmStore store;
  sim::Simulation sim;
};

TEST(PipelineClaimOrderTest, LargestGroupFirstTiesInShardOrder) {
  SkewedWorkload w;
  std::vector<std::vector<mobility::VehicleId>> seen;
  const auto run = w.sim.run_sharded(
      [&](net::ClientLink&) {
        return std::make_unique<RecordingStrategy>(seen, w.sim.ticks());
      },
      {.shards = 4, .threads = 1});
  ASSERT_EQ(run.subscribers, SkewedWorkload::kSkewVehicles);

  const cluster::ShardMap map(w.grid, 4);
  ASSERT_EQ(map.shard_count(), 4u);
  w.source.reset();
  bool saw_tie = false;
  for (std::size_t t = 0; t < w.sim.ticks(); ++t) {
    if (t > 0) w.source.step();
    const auto& samples = w.source.samples();
    std::vector<std::vector<mobility::VehicleId>> groups(4);
    for (mobility::VehicleId v = 0; v < samples.size(); ++v) {
      groups[map.shard_of(samples[v].pos)].push_back(v);
    }
    std::vector<std::size_t> order = {0, 1, 2, 3};
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return groups[a].size() != groups[b].size()
                 ? groups[a].size() > groups[b].size()
                 : a < b;
    });
    std::vector<mobility::VehicleId> expected;
    for (const std::size_t i : order) {
      expected.insert(expected.end(), groups[i].begin(), groups[i].end());
      if (i > 0 && groups[i].size() == groups[i - 1].size()) saw_tie = true;
    }
    ASSERT_EQ(seen[t], expected) << "tick " << t;
    // Shard 0 dominates, so the claim order is not the index order.
    ASSERT_GT(groups[0].size(), groups[1].size()) << "tick " << t;
  }
  EXPECT_TRUE(saw_tie);  // the two empty shards tie every tick
}

TEST(PipelineSkewTest, SkewedGroupsAreBitIdenticalAcrossThreadCounts) {
  SkewedWorkload w;
  net::ChannelConfig channel;
  channel.uplink_loss = 0.1;
  channel.downlink_loss = 0.1;
  channel.latency_jitter_ms = 40.0;
  channel.outage_start_per_tick = 0.02;
  channel.outage_mean_ticks = 3.0;
  w.sim.set_channel(channel, kChannelSeed);
  failover::FailoverConfig crashes;
  crashes.crash_per_tick = 0.03;
  crashes.crash_mean_down_ticks = 4.0;
  crashes.checkpoint_interval_ticks = 15;
  w.sim.set_failover(crashes, 61);
  const auto factory = [](net::ClientLink& link) {
    return std::make_unique<strategies::RectRegionStrategy>(
        link, saferegion::MotionModel(1.0, 32), saferegion::MwpsrOptions{});
  };
  const auto ref = w.sim.run_sharded(factory, {.shards = 4, .threads = 1});
  EXPECT_EQ(ref.accuracy.missed, 0u);
  EXPECT_EQ(ref.accuracy.spurious, 0u);
  EXPECT_EQ(ref.accuracy.late, 0u);
  EXPECT_GT(ref.accuracy.expected, 0u);
  EXPECT_GT(ref.metrics.net_outages, 0u);
  EXPECT_GT(ref.metrics.fo_crashes, 0u);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    expect_bit_identical(
        ref, w.sim.run_sharded(factory, {.shards = 4, .threads = threads}));
  }
}

}  // namespace
}  // namespace salarm
