// Failover tier tests (DESIGN.md §10): deterministic shard fault
// injection, checkpoint + journal durability, crash recovery (with and
// without a journal), degraded-mode clients, and the headline invariant —
// every strategy stays oracle-exact under arbitrary crash schedules, with
// recovery accounting bit-identical at any thread count.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "cluster/sharded_server.h"
#include "common/error.h"
#include "core/experiment.h"
#include "failover/crash_plan.h"
#include "grid/grid_overlay.h"
#include "net/channel.h"
#include "net/link.h"
#include "saferegion/wire_format.h"
#include "sim/server.h"

namespace salarm {
namespace {

using geo::Point;
using geo::Rect;

// ---------------------------------------------------------------------------
// CrashPlan: schedule determinism and query consistency.
// ---------------------------------------------------------------------------

failover::FailoverConfig crashy_config() {
  failover::FailoverConfig c;
  c.crash_per_tick = 0.05;
  c.crash_mean_down_ticks = 4.0;
  return c;
}

TEST(CrashPlanTest, SameSeedReplaysBitIdentically) {
  const auto config = crashy_config();
  const failover::CrashPlan a(config, 4, 300, 97);
  const failover::CrashPlan b(config, 4, 300, 97);
  ASSERT_EQ(a.shard_count(), b.shard_count());
  for (std::size_t s = 0; s < a.shard_count(); ++s) {
    const auto& wa = a.windows(s);
    const auto& wb = b.windows(s);
    ASSERT_EQ(wa.size(), wb.size()) << "shard " << s;
    for (std::size_t i = 0; i < wa.size(); ++i) {
      EXPECT_EQ(wa[i].begin, wb[i].begin);
      EXPECT_EQ(wa[i].end, wb[i].end);
    }
  }
}

TEST(CrashPlanTest, ShardStreamsAreIndependent) {
  // Shard 0's windows must not depend on how many other shards draw —
  // the property that keeps sharded runs bit-identical at any thread
  // count and lets tests reason about one shard in isolation.
  const auto config = crashy_config();
  const failover::CrashPlan solo(config, 1, 300, 7);
  const failover::CrashPlan fleet(config, 8, 300, 7);
  const auto& ws = solo.windows(0);
  const auto& wf = fleet.windows(0);
  ASSERT_EQ(ws.size(), wf.size());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i].begin, wf[i].begin);
    EXPECT_EQ(ws[i].end, wf[i].end);
  }
}

TEST(CrashPlanTest, GeneratedWindowsSatisfyTheScheduleInvariants) {
  const failover::CrashPlan plan(crashy_config(), 6, 400, 13);
  std::size_t total = 0;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    std::uint64_t prev_end = 0;
    for (const auto& w : plan.windows(s)) {
      EXPECT_GE(w.begin, 1u);          // tick 0 bootstraps, never crashes
      EXPECT_GT(w.end, w.begin);       // at least one tick of downtime
      EXPECT_LE(w.end, 400u);          // clipped at the end of the run
      EXPECT_GT(w.begin, prev_end);    // no crash on the recovery tick
      prev_end = w.end;
      ++total;
    }
  }
  EXPECT_GT(total, 0u) << "rate 0.05 over 400 ticks must schedule crashes";
}

TEST(CrashPlanTest, QueriesAgreeWithTheWindowList) {
  const failover::CrashPlan plan(
      {{{2, 5}, {7, 9}}, {{1, 10}}}, /*ticks=*/10);
  EXPECT_EQ(plan.shard_count(), 2u);
  for (std::uint64_t t = 0; t < 10; ++t) {
    for (std::size_t s = 0; s < 2; ++s) {
      bool begins = false;
      bool ends = false;
      for (const auto& w : plan.windows(s)) {
        begins |= (t == w.begin);
        ends |= (t == w.end);
      }
      EXPECT_EQ(plan.crashes_at(s, t), begins);
      EXPECT_EQ(plan.recovers_at(s, t), ends);
    }
  }
}

TEST(CrashPlanTest, ExplicitScheduleRejectsMalformedWindows) {
  using Windows = std::vector<std::vector<failover::CrashWindow>>;
  // A crash at tick 0 would precede the bootstrap checkpoint.
  EXPECT_THROW(failover::CrashPlan(Windows{{{0, 2}}}, 10), PreconditionError);
  // Empty or inverted windows.
  EXPECT_THROW(failover::CrashPlan(Windows{{{3, 3}}}, 10), PreconditionError);
  EXPECT_THROW(failover::CrashPlan(Windows{{{5, 3}}}, 10), PreconditionError);
  // Beyond the end of the run.
  EXPECT_THROW(failover::CrashPlan(Windows{{{3, 11}}}, 10), PreconditionError);
  // Adjacent windows would crash a shard on its recovery tick.
  EXPECT_THROW(failover::CrashPlan(Windows{{{2, 4}, {4, 6}}}, 10),
               PreconditionError);
  // Overlapping / unsorted windows.
  EXPECT_THROW(failover::CrashPlan(Windows{{{2, 6}, {5, 8}}}, 10),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Checkpoint / journal wire format: round trips and hostile-input hardening.
// ---------------------------------------------------------------------------

alarms::SpatialAlarm wire_alarm(alarms::AlarmId id) {
  alarms::SpatialAlarm a;
  a.id = id;
  a.scope = alarms::AlarmScope::kShared;
  a.owner = 3;
  a.region = Rect(100, 200, 400, 500);
  a.subscribers = {3, 8, 12};
  a.message = "checkpointed alert";
  return a;
}

wire::ShardCheckpointMsg sample_checkpoint() {
  wire::ShardCheckpointMsg m;
  m.shard = 2;
  m.tick = 90;
  m.alarms.push_back({wire_alarm(5), 0});
  m.alarms.push_back({wire_alarm(9), 42});
  m.graveyard.push_back({wire_alarm(7), 10, 33});
  m.spent.push_back({5, 8});
  m.spent.push_back({9, 12});
  m.grants.push_back({4, 1, Rect(0, 0, 1000, 1000)});
  return m;
}

TEST(FailoverWireTest, CheckpointRoundTripsBitExactly) {
  const auto m = sample_checkpoint();
  const auto bytes = wire::encode(m);
  EXPECT_EQ(bytes.size(), wire::encoded_size(m));
  const auto d = wire::decode<wire::ShardCheckpointMsg>(bytes);
  EXPECT_EQ(d.shard, m.shard);
  EXPECT_EQ(d.tick, m.tick);
  ASSERT_EQ(d.alarms.size(), 2u);
  EXPECT_EQ(d.alarms[0].alarm.id, 5u);
  EXPECT_EQ(d.alarms[0].installed_at, 0u);
  EXPECT_EQ(d.alarms[1].alarm.id, 9u);
  EXPECT_EQ(d.alarms[1].installed_at, 42u);
  EXPECT_EQ(d.alarms[1].alarm.subscribers, m.alarms[1].alarm.subscribers);
  EXPECT_EQ(d.alarms[1].alarm.message, m.alarms[1].alarm.message);
  ASSERT_EQ(d.graveyard.size(), 1u);
  EXPECT_EQ(d.graveyard[0].alarm.id, 7u);
  EXPECT_EQ(d.graveyard[0].installed_at, 10u);
  EXPECT_EQ(d.graveyard[0].removed_at, 33u);
  ASSERT_EQ(d.spent.size(), 2u);
  EXPECT_EQ(d.spent[1].alarm, 9u);
  EXPECT_EQ(d.spent[1].subscriber, 12u);
  ASSERT_EQ(d.grants.size(), 1u);
  EXPECT_EQ(d.grants[0].subscriber, 4u);
  EXPECT_EQ(d.grants[0].kind, 1u);
  EXPECT_EQ(d.grants[0].bounds, m.grants[0].bounds);
}

TEST(FailoverWireTest, EmptyCheckpointRoundTrips) {
  wire::ShardCheckpointMsg m;
  m.shard = 0;
  m.tick = 0;
  const auto bytes = wire::encode(m);
  EXPECT_EQ(bytes.size(), wire::encoded_size(m));
  const auto d = wire::decode<wire::ShardCheckpointMsg>(bytes);
  EXPECT_TRUE(d.alarms.empty());
  EXPECT_TRUE(d.graveyard.empty());
  EXPECT_TRUE(d.spent.empty());
  EXPECT_TRUE(d.grants.empty());
}

TEST(FailoverWireTest, JournalRecordsRoundTripForEveryKind) {
  wire::JournalRecordMsg install;
  install.kind = wire::JournalRecordMsg::Kind::kInstall;
  install.tick = 17;
  install.alarm = wire_alarm(21);
  install.alarm_id = 21;
  wire::JournalRecordMsg remove;
  remove.kind = wire::JournalRecordMsg::Kind::kRemove;
  remove.tick = 18;
  remove.alarm_id = 21;
  wire::JournalRecordMsg spent;
  spent.kind = wire::JournalRecordMsg::Kind::kSpent;
  spent.tick = 19;
  spent.alarm_id = 5;
  spent.subscriber = 44;
  for (const auto& m : {install, remove, spent}) {
    const auto bytes = wire::encode(m);
    EXPECT_EQ(bytes.size(), wire::encoded_size(m));
    const auto d = wire::decode<wire::JournalRecordMsg>(bytes);
    EXPECT_EQ(d.kind, m.kind);
    EXPECT_EQ(d.tick, m.tick);
    EXPECT_EQ(d.alarm_id, m.alarm_id);
  }
  const auto d = wire::decode<wire::JournalRecordMsg>(wire::encode(install));
  EXPECT_EQ(d.alarm.id, 21u);
  EXPECT_EQ(d.alarm.region, install.alarm.region);
  EXPECT_EQ(d.alarm.message, install.alarm.message);
  const auto s = wire::decode<wire::JournalRecordMsg>(wire::encode(spent));
  EXPECT_EQ(s.subscriber, 44u);
}

TEST(FailoverWireTest, EveryTruncationOfACheckpointIsRejected) {
  const auto bytes = wire::encode(sample_checkpoint());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)wire::decode<wire::ShardCheckpointMsg>(
                     std::span(bytes.data(), len)),
                 PreconditionError)
        << "length " << len;
  }
  auto padded = bytes;
  padded.push_back(0);  // trailing garbage must also be rejected
  EXPECT_THROW((void)wire::decode<wire::ShardCheckpointMsg>(padded),
               PreconditionError);
}

TEST(FailoverWireTest, EveryTruncationOfAJournalRecordIsRejected) {
  wire::JournalRecordMsg m;
  m.kind = wire::JournalRecordMsg::Kind::kSpent;
  m.tick = 3;
  m.alarm_id = 1;
  m.subscriber = 2;
  const auto bytes = wire::encode(m);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)wire::decode<wire::JournalRecordMsg>(
                     std::span(bytes.data(), len)),
                 PreconditionError)
        << "length " << len;
  }
}

TEST(FailoverWireTest, WrongTypeByteIsRejected) {
  auto bytes = wire::encode(sample_checkpoint());
  bytes[0] = 0x03;  // some other message type
  EXPECT_THROW((void)wire::decode<wire::ShardCheckpointMsg>(bytes),
               PreconditionError);
  wire::JournalRecordMsg m;
  auto jb = wire::encode(m);
  jb[0] = 0xEE;  // not a message type at all
  EXPECT_THROW((void)wire::decode<wire::JournalRecordMsg>(jb),
               PreconditionError);
}

TEST(FailoverWireTest, UnknownJournalKindIsRejected) {
  wire::JournalRecordMsg m;
  auto bytes = wire::encode(m);
  bytes[1] = 7;  // kind beyond kSpent
  EXPECT_THROW((void)wire::decode<wire::JournalRecordMsg>(bytes),
               PreconditionError);
}

TEST(FailoverWireTest, SectionCountBombsAreRejectedBeforeAllocation) {
  // A hostile count field claiming ~4G entries in a near-empty payload
  // must be rejected by the payload-bound check, not die in reserve().
  wire::ShardCheckpointMsg empty;
  auto bytes = wire::encode(empty);
  // Layout: type(1) shard(4) tick(8) alarm_count(4) tomb(4) spent(4)
  // grant(4); the alarm count lives at offset 13, the grant count at 25.
  for (const std::size_t offset : {std::size_t{13}, std::size_t{25}}) {
    auto bomb = bytes;
    for (std::size_t i = 0; i < 4; ++i) bomb[offset + i] = 0xFF;
    EXPECT_THROW((void)wire::decode<wire::ShardCheckpointMsg>(bomb),
                 PreconditionError)
        << "count at offset " << offset;
  }
}

TEST(FailoverWireTest, InvalidGrantKindAndTombLifetimeAreRejected) {
  auto with_grant = sample_checkpoint();
  with_grant.grants[0].kind = 9;  // beyond dynamics::GrantKind
  EXPECT_THROW(
      (void)wire::decode<wire::ShardCheckpointMsg>(wire::encode(with_grant)),
      PreconditionError);
  auto with_tomb = sample_checkpoint();
  with_tomb.graveyard[0].removed_at = with_tomb.graveyard[0].installed_at;
  EXPECT_THROW(
      (void)wire::decode<wire::ShardCheckpointMsg>(wire::encode(with_tomb)),
      PreconditionError);
}

// ---------------------------------------------------------------------------
// Hand-built crash recovery: a two-shard world with an explicit schedule.
// ---------------------------------------------------------------------------

alarms::SpatialAlarm crash_world_alarm(alarms::AlarmId id,
                                       const Rect& region) {
  alarms::SpatialAlarm a;
  a.id = id;
  a.scope = alarms::AlarmScope::kPublic;
  a.region = region;
  a.message = "crash-world alert";
  return a;
}

/// 4 km x 4 km, 4x4 grid, two shards split at x = 2000, one public alarm
/// wholly inside shard 1, one subscriber, perfect channel. The crash plan
/// is explicit so tests can place downtime exactly where they need it.
struct CrashWorld {
  CrashWorld(std::vector<failover::CrashWindow> shard1_windows,
             std::uint64_t ticks, bool journal) {
    store.install(crash_world_alarm(0, Rect(2500, 2500, 2800, 2800)));
    server = std::make_unique<cluster::ShardedServer>(store, grid, 2, 1);
    server->enable_dynamics();
    config.crash_per_tick = 0.0;  // schedule is explicit, not drawn
    config.checkpoint_interval_ticks = 1000;  // only the tick-0 baseline
    config.journal = journal;
    plan = std::make_unique<failover::CrashPlan>(
        std::vector<std::vector<failover::CrashWindow>>{
            {}, std::move(shard1_windows)},
        ticks);
    server->enable_failover(config, *plan);
    link = std::make_unique<net::ClientLink>(*server, net::ChannelConfig{},
                                             /*seed=*/1);
  }

  /// One serial-phase tick for the single subscriber at `pos`, mirroring
  /// Simulation::run_sharded's orchestration order.
  std::vector<alarms::AlarmId> tick(std::uint64_t t, Point pos) {
    server->begin_failover_tick(t);
    server->take_due_checkpoints(t);
    samples.assign(1, mobility::VehicleSample{pos, 0.0, 0.0});
    link->begin_tick(t, samples);
    (void)link->take_invalidations(0);
    server->set_active_shard(server->map().shard_of(pos));
    return link->report(0, pos, t);
  }

  grid::GridOverlay grid{Rect(0, 0, 4000, 4000), 4, 4};
  alarms::AlarmStore store;
  failover::FailoverConfig config;
  std::unique_ptr<cluster::ShardedServer> server;
  std::unique_ptr<failover::CrashPlan> plan;
  std::unique_ptr<net::ClientLink> link;
  std::vector<mobility::VehicleSample> samples;
};

TEST(ShardCrashRecoveryTest, MidCrashTriggerFiresAtItsTrueTick) {
  // Shard 1 is down for ticks [3, 6). The subscriber walks into the alarm
  // region at tick 3 — exactly while its shard is dead — so the report is
  // buffered client-side and must fire at stamp 3 when the shard returns.
  CrashWorld w({{3, 6}}, /*ticks=*/10, /*journal=*/true);
  EXPECT_TRUE(w.tick(1, {2200, 2200}).empty());  // shard 1, outside alarm
  EXPECT_TRUE(w.tick(2, {2300, 2300}).empty());
  EXPECT_FALSE(w.server->shard_down(1));

  EXPECT_TRUE(w.tick(3, {2600, 2600}).empty());  // crash tick: buffered
  EXPECT_TRUE(w.server->shard_down(1));
  EXPECT_TRUE(w.tick(4, {2650, 2650}).empty());
  EXPECT_TRUE(w.tick(5, {2700, 2700}).empty());
  EXPECT_TRUE(w.server->merged_trigger_log().empty());  // nothing fired yet

  // Recovery tick: begin_tick flushes the buffer through temporal
  // server-side checking before the strategy runs.
  EXPECT_TRUE(w.tick(6, {2700, 2700}).empty());  // spent during the flush
  EXPECT_FALSE(w.server->shard_down(1));
  const auto log = w.server->merged_trigger_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].alarm, 0u);
  EXPECT_EQ(log[0].subscriber, 0u);
  EXPECT_EQ(log[0].tick, 3u);  // the true tick, not the recovery tick

  const auto m = w.server->merged_metrics();
  EXPECT_EQ(m.fo_crashes, 1u);
  EXPECT_EQ(m.fo_recoveries, 1u);
  EXPECT_EQ(m.fo_recovery_ticks, 3u);
  EXPECT_EQ(m.fo_buffered_reports, 3u);
  // Degraded-mode bookkeeping runs in the link's serial phase, so it is
  // charged to the link metrics (Simulation merges them into the result).
  EXPECT_EQ(w.link->link_metrics().fo_degraded_ticks, 3u);
  EXPECT_EQ(w.link->link_metrics().fo_grant_voids, 1u);
  // Perfect channel: arming failover must not wake the net protocol.
  EXPECT_EQ(m.net_retransmissions, 0u);
  EXPECT_EQ(m.net_outages, 0u);
  EXPECT_EQ(m.net_delivery_latency_ms.count(), 0u);
}

TEST(ShardCrashRecoveryTest, JournalReplayRestoresSpentStateAcrossACrash) {
  // The alarm fires at tick 1 — after the tick-0 baseline checkpoint — so
  // the spent mark lives only in the journal. The crash at tick 2 wipes
  // the shard; replay must restore the mark or tick 4 double-fires.
  CrashWorld w({{2, 4}}, /*ticks=*/10, /*journal=*/true);
  const auto fired = w.tick(1, {2600, 2600});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(w.tick(2, {2650, 2650}).empty());  // down: buffered
  EXPECT_TRUE(w.tick(3, {2650, 2650}).empty());
  EXPECT_TRUE(w.tick(4, {2700, 2700}).empty());  // recovered: no re-fire
  EXPECT_TRUE(w.tick(5, {2700, 2700}).empty());
  const auto log = w.server->merged_trigger_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].tick, 1u);
  const auto m = w.server->merged_metrics();
  EXPECT_GT(m.fo_journal_records, 0u);
  EXPECT_GT(m.fo_journal_replays, 0u);
  EXPECT_EQ(m.fo_reregistrations, 0u);  // journal mode never re-registers
}

TEST(ShardCrashRecoveryTest, JournallessRecoveryRebuildsSpentByReregistration) {
  // Same scenario without a journal: recovery must fall back to client
  // re-registration to rebuild the spent mark (DESIGN.md §10).
  CrashWorld w({{2, 4}}, /*ticks=*/10, /*journal=*/false);
  const auto fired = w.tick(1, {2600, 2600});
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(w.tick(2, {2650, 2650}).empty());
  EXPECT_TRUE(w.tick(3, {2650, 2650}).empty());
  EXPECT_TRUE(w.tick(4, {2700, 2700}).empty());
  EXPECT_TRUE(w.tick(5, {2700, 2700}).empty());
  const auto log = w.server->merged_trigger_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].tick, 1u);
  const auto m = w.server->merged_metrics();
  EXPECT_EQ(m.fo_journal_records, 0u);
  EXPECT_EQ(m.fo_journal_replays, 0u);
  EXPECT_GT(m.fo_reregistrations, 0u);
  EXPECT_GT(m.fo_reregistration_bytes, 0u);
}

TEST(ShardFailoverStateTest, ServerFollowsItsCrashPlan) {
  // The server is the plan's only reader; the link and the pipeline ask
  // it. Its answers must match the window list at every tick. Shard 1's
  // window is cut off by the end of the 10-tick run.
  const std::vector<std::vector<failover::CrashWindow>> windows{
      {{2, 5}, {7, 9}}, {{1, 10}}};
  alarms::AlarmStore store;
  store.install(crash_world_alarm(0, Rect(2500, 2500, 2800, 2800)));
  const grid::GridOverlay grid(Rect(0, 0, 4000, 4000), 4, 4);
  cluster::ShardedServer server(store, grid, /*shard_count=*/2,
                                /*subscriber_count=*/1);
  EXPECT_FALSE(server.failover_armed());
  server.enable_failover(failover::FailoverConfig{},
                         failover::CrashPlan(windows, /*ticks=*/10));
  EXPECT_TRUE(server.failover_armed());
  for (std::uint64_t t = 0; t < 10; ++t) {
    server.begin_failover_tick(t);
    for (std::size_t s = 0; s < 2; ++s) {
      bool down = false;
      bool begins = false;
      for (const auto& w : windows[s]) {
        down |= (t >= w.begin && t < w.end);
        begins |= (t == w.begin);
      }
      EXPECT_EQ(server.shard_down(s), down) << "shard " << s << " tick " << t;
      EXPECT_EQ(server.shard_crashed_at(s, t), begins)
          << "shard " << s << " tick " << t;
    }
  }
  EXPECT_EQ(server.finish_failover(10), 1u);
  EXPECT_FALSE(server.shard_down(0));
  EXPECT_FALSE(server.shard_down(1));
  EXPECT_EQ(server.shard_metrics(0).fo_recoveries, 2u);
  EXPECT_EQ(server.shard_metrics(1).fo_recoveries, 1u);
}

// ---------------------------------------------------------------------------
// Integration: oracle-exactness for every strategy under crash schedules.
// ---------------------------------------------------------------------------

core::ExperimentConfig chaos_experiment_config(std::uint64_t seed) {
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

sim::Simulation::StrategyFactory chaos_factory(
    const core::Experiment& experiment, const std::string& name) {
  if (name == "prd") return experiment.periodic();
  if (name == "sp") return experiment.safe_period();
  if (name == "mwpsr") return experiment.rect(saferegion::MotionModel(1.0, 32));
  if (name == "gbsr") {
    saferegion::PyramidConfig cfg;
    cfg.height = 1;
    return experiment.bitmap(cfg);
  }
  if (name == "pbsr") {
    saferegion::PyramidConfig cfg;
    cfg.height = 5;
    return experiment.bitmap(cfg);
  }
  if (name == "pbsr_cached") {
    saferegion::PyramidConfig cfg;
    cfg.height = 5;
    return experiment.bitmap_cached(cfg);
  }
  if (name == "opt") return experiment.optimal();
  throw PreconditionError("unknown strategy: " + name);
}

net::ChannelConfig chaos_channel(double loss) {
  net::ChannelConfig c;
  c.uplink_loss = loss;
  c.downlink_loss = loss;
  c.duplicate_rate = 0.1;
  c.latency_base_ms = 40.0;
  c.latency_jitter_ms = 80.0;
  c.outage_start_per_tick = 0.01;
  c.outage_mean_ticks = 3.0;
  return c;
}

failover::FailoverConfig chaos_crashes(bool journal) {
  failover::FailoverConfig c;
  c.crash_per_tick = 0.03;
  c.crash_mean_down_ticks = 4.0;
  c.checkpoint_interval_ticks = 20;
  c.journal = journal;
  return c;
}

void expect_perfect_chaos(const sim::RunResult& r) {
  EXPECT_EQ(r.accuracy.missed, 0u) << r.strategy;
  EXPECT_EQ(r.accuracy.spurious, 0u) << r.strategy;
  EXPECT_EQ(r.accuracy.late, 0u) << r.strategy;
  EXPECT_GT(r.accuracy.expected, 0u) << "workload produced no triggers";
}

/// Crash schedules composed with the strategies: "journal" is crash
/// chaos alone over a perfect channel; "journal_net" and "redo_net" stack
/// the §9 chaos channel on top, the latter recovering without a journal.
using CrashParam = std::tuple<std::string, std::string, std::uint64_t>;

class CrashChaosTest : public ::testing::TestWithParam<CrashParam> {};

TEST_P(CrashChaosTest, StrategyStaysOracleExactAcrossCrashes) {
  const auto& [name, schedule, seed] = GetParam();
  core::Experiment experiment(chaos_experiment_config(seed));
  experiment.enable_failover(chaos_crashes(schedule != "redo_net"));
  if (schedule != "journal") {
    experiment.enable_channel(chaos_channel(0.2));
  }
  const auto run = experiment.simulation().run_sharded(
      chaos_factory(experiment, name), {.shards = 4, .threads = 1});
  expect_perfect_chaos(run);
  const sim::Metrics& m = run.metrics;
  EXPECT_GT(m.fo_crashes, 0u) << name;
  EXPECT_EQ(m.fo_recoveries, m.fo_crashes) << name;
  EXPECT_GT(m.fo_recovery_ticks, 0u) << name;
  EXPECT_GT(m.fo_checkpoints, 0u) << name;
  EXPECT_GT(m.fo_checkpoint_bytes, 0u) << name;
  EXPECT_GT(m.fo_degraded_ticks, 0u) << name;
  EXPECT_GT(m.fo_buffered_reports, 0u) << name;
  if (schedule == "redo_net") {
    EXPECT_EQ(m.fo_journal_records, 0u) << name;
    EXPECT_EQ(m.fo_journal_replays, 0u) << name;
  } else {
    EXPECT_GT(m.fo_journal_records, 0u) << name;
    EXPECT_GT(m.fo_journal_bytes, 0u) << name;
  }
  if (schedule == "journal") {
    // Crash chaos over a perfect channel must not wake the net protocol.
    EXPECT_EQ(m.net_retransmissions, 0u) << name;
    EXPECT_EQ(m.net_outages, 0u) << name;
    EXPECT_EQ(m.net_delivery_latency_ms.count(), 0u) << name;
  } else {
    EXPECT_GT(m.net_retransmissions, 0u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, CrashChaosTest,
    ::testing::Combine(::testing::Values("prd", "sp", "mwpsr", "gbsr", "pbsr",
                                         "pbsr_cached", "opt"),
                       ::testing::Values("journal", "journal_net", "redo_net"),
                       ::testing::Values(7u, 11u, 23u)),
    [](const ::testing::TestParamInfo<CrashParam>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) +
             "_seed" + std::to_string(std::get<2>(info.param));
    });

TEST(CrashChurnTest, CrashesComposeWithChurnWithoutLosingExactness) {
  for (const char* name : {"mwpsr", "pbsr", "opt"}) {
    core::Experiment experiment(chaos_experiment_config(43));
    experiment.enable_churn(experiment.churn_config(/*installs_per_tick=*/1.0,
                                                    /*removes_per_tick=*/0.5));
    experiment.enable_channel(chaos_channel(0.2));
    experiment.enable_failover(chaos_crashes(/*journal=*/true));
    const auto run = experiment.simulation().run_sharded(
        chaos_factory(experiment, name), {.shards = 4, .threads = 1});
    expect_perfect_chaos(run);
    EXPECT_GT(run.metrics.alarms_installed, 0u) << name;
    EXPECT_GT(run.metrics.fo_crashes, 0u) << name;
  }
}

TEST(CrashReplayTest, CrashScheduleReplaysBitIdentically) {
  core::Experiment experiment(chaos_experiment_config(31));
  experiment.enable_channel(chaos_channel(0.2));
  experiment.enable_failover(chaos_crashes(/*journal=*/true));
  const auto factory = experiment.rect(saferegion::MotionModel(1.0, 32));
  const auto first = experiment.simulation().run_sharded(
      factory, {.shards = 4, .threads = 1});
  // A different strategy in between must not perturb the replay.
  (void)experiment.simulation().run_sharded(experiment.optimal(),
                                            {.shards = 4, .threads = 1});
  const auto again = experiment.simulation().run_sharded(
      factory, {.shards = 4, .threads = 1});
  EXPECT_EQ(again.trigger_log, first.trigger_log);
  EXPECT_EQ(again.metrics.fo_crashes, first.metrics.fo_crashes);
  EXPECT_EQ(again.metrics.fo_recovery_ticks, first.metrics.fo_recovery_ticks);
  EXPECT_EQ(again.metrics.fo_checkpoint_bytes,
            first.metrics.fo_checkpoint_bytes);
  EXPECT_EQ(again.metrics.fo_journal_bytes, first.metrics.fo_journal_bytes);
  EXPECT_EQ(again.metrics.fo_buffered_reports,
            first.metrics.fo_buffered_reports);
  EXPECT_EQ(again.metrics.net_retransmissions,
            first.metrics.net_retransmissions);
  EXPECT_EQ(again.metrics.uplink_messages, first.metrics.uplink_messages);
}

// ---------------------------------------------------------------------------
// Sharded crash determinism: bit-identical at any thread count.
// ---------------------------------------------------------------------------

void expect_bit_identical_with_failover(const sim::RunResult& a,
                                        const sim::RunResult& b) {
  EXPECT_EQ(b.trigger_log, a.trigger_log);
  EXPECT_EQ(b.metrics, a.metrics);
}

class ShardedCrashDeterminismTest : public ::testing::Test {
 protected:
  void check(const std::string& name, bool journal, bool churn = false) {
    core::Experiment experiment(chaos_experiment_config(53));
    if (churn) {
      experiment.enable_churn(experiment.churn_config(
          /*installs_per_tick=*/1.0, /*removes_per_tick=*/0.5));
    }
    experiment.enable_channel(chaos_channel(0.2));
    experiment.enable_failover(chaos_crashes(journal));
    const auto factory = chaos_factory(experiment, name);
    const auto ref = experiment.simulation().run_sharded(
        factory, {.shards = 4, .threads = 1});
    expect_perfect_chaos(ref);
    EXPECT_GT(ref.metrics.fo_crashes, 0u) << name;
    // Due checkpoints run as one pool task per up shard.
    EXPECT_GT(ref.metrics.fo_checkpoints, 4u) << name;
    if (churn) {
      EXPECT_GT(ref.metrics.alarms_installed, 0u) << name;
    }
    for (const std::size_t threads :
         {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      expect_bit_identical_with_failover(
          ref, experiment.simulation().run_sharded(
                   factory, {.shards = 4, .threads = threads}));
    }
  }
};

TEST_F(ShardedCrashDeterminismTest, MwpsrBitIdenticalAcrossThreadCounts) {
  check("mwpsr", /*journal=*/true);
}

TEST_F(ShardedCrashDeterminismTest, SafePeriodBitIdenticalAcrossThreadCounts) {
  check("sp", /*journal=*/true);
}

TEST_F(ShardedCrashDeterminismTest, PbsrBitIdenticalAcrossThreadCounts) {
  check("pbsr", /*journal=*/true);
}

TEST_F(ShardedCrashDeterminismTest, OptJournallessBitIdenticalAcrossThreads) {
  check("opt", /*journal=*/false);
}

TEST_F(ShardedCrashDeterminismTest, MwpsrWithChurnBitIdenticalAcrossThreads) {
  check("mwpsr", /*journal=*/true, /*churn=*/true);
}

TEST_F(ShardedCrashDeterminismTest, PbsrJournallessChurnBitIdenticalAcrossThreads) {
  check("pbsr", /*journal=*/false, /*churn=*/true);
}

TEST(FailoverNoOpTest, UnarmedShardedRunCountsNoFailoverWork) {
  core::Experiment experiment(chaos_experiment_config(61));
  const auto run = experiment.simulation().run_sharded(
      experiment.rect(saferegion::MotionModel(1.0, 32)),
      {.shards = 4, .threads = 2});
  const sim::Metrics& m = run.metrics;
  EXPECT_EQ(m.fo_crashes, 0u);
  EXPECT_EQ(m.fo_recoveries, 0u);
  EXPECT_EQ(m.fo_checkpoints, 0u);
  EXPECT_EQ(m.fo_checkpoint_bytes, 0u);
  EXPECT_EQ(m.fo_journal_records, 0u);
  EXPECT_EQ(m.fo_grant_voids, 0u);
  EXPECT_EQ(m.fo_degraded_ticks, 0u);
  EXPECT_EQ(m.fo_buffered_reports, 0u);
}

// With the unified tick pipeline (DESIGN.md §11), the former monolithic
// run mode is a one-shard cluster — so a single-server crash takes the
// whole service down, every client degrades and buffers, and recovery
// restores checkpoint + journal like any shard. The old engine refused
// this configuration outright.
TEST(SingleShardFailoverTest, MonolithicRunSurvivesCrashRecovery) {
  core::Experiment experiment(chaos_experiment_config(61));
  experiment.enable_failover(chaos_crashes(/*journal=*/true));
  const auto run = experiment.simulation().run(
      experiment.rect(saferegion::MotionModel(1.0, 32)));
  expect_perfect_chaos(run);
  const sim::Metrics& m = run.metrics;
  EXPECT_GT(m.fo_crashes, 0u);
  EXPECT_EQ(m.fo_recoveries, m.fo_crashes);
  EXPECT_GT(m.fo_checkpoints, 0u);
  EXPECT_GT(m.fo_degraded_ticks, 0u);
  EXPECT_GT(m.fo_buffered_reports, 0u);
  EXPECT_EQ(m.handoff_messages, 0u);  // one shard: no boundaries to cross
}

// Journal-less single-server recovery: the redo ledger plus client
// re-registration rebuilds the whole service's state.
TEST(SingleShardFailoverTest, MonolithicRedoRecoveryStaysOracleExact) {
  core::Experiment experiment(chaos_experiment_config(61));
  experiment.enable_failover(chaos_crashes(/*journal=*/false));
  const auto run = experiment.simulation().run(
      experiment.rect(saferegion::MotionModel(1.0, 32)));
  expect_perfect_chaos(run);
  const sim::Metrics& m = run.metrics;
  EXPECT_GT(m.fo_crashes, 0u);
  EXPECT_EQ(m.fo_journal_records, 0u);
  EXPECT_GT(m.fo_reregistrations, 0u);
}

// ---------------------------------------------------------------------------
// ClientLink retransmission backoff: property sweep (satellite).
// ---------------------------------------------------------------------------

/// The one public alarm of the link and engine worlds below.
alarms::AlarmStore link_world_alarms() {
  alarms::AlarmStore store;
  store.install(crash_world_alarm(0, Rect(1400, 400, 1700, 700)));
  return store;
}

/// 4 km x 4 km world with one public alarm served by a one-shard cluster,
/// mirroring net_test.cpp.
struct LinkWorld {
  LinkWorld() { server.set_active_shard(0); }

  grid::GridOverlay grid{Rect(0, 0, 4000, 4000), 4, 4};
  cluster::ShardedServer server{link_world_alarms(), grid, /*shard_count=*/1,
                                /*subscriber_count=*/1};
};

/// The same world as a bare per-shard engine, for the graveyard tests that
/// drive sim::Server directly.
struct EngineWorld {
  alarms::AlarmStore store = link_world_alarms();
  grid::GridOverlay grid{Rect(0, 0, 4000, 4000), 4, 4};
  sim::Metrics metrics;
  sim::Server server{store, grid, metrics};
};

TEST(ClientLinkBackoffTest, BackoffDoublesPerRoundAndResetsAfterEveryAck) {
  // Property: within one reliable exchange the retransmission waits start
  // at the channel's base RTO and double per failed round (monotone
  // non-decreasing); the next exchange starts from the base RTO again
  // (the ACK reset). Checked across seeds so the property does not hinge
  // on one lucky loss pattern.
  net::ChannelConfig c;
  c.uplink_loss = 0.4;
  c.latency_base_ms = 40.0;  // no jitter: base RTO is exactly 81 ms
  const double base_rto = 2.0 * c.latency_base_ms + 1.0;
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    LinkWorld w;
    net::ClientLink link(w.server, c, seed);
    std::size_t multi_round_exchanges = 0;
    for (std::uint64_t t = 0; t < 400; ++t) {
      (void)link.report(0, {100, 100}, t);
      const auto& waits = link.last_exchange_backoffs(0);
      if (waits.empty()) continue;  // clean exchange: no retransmissions
      EXPECT_DOUBLE_EQ(waits.front(), base_rto)
          << "seed " << seed << " tick " << t << ": RTO not reset by ACK";
      for (std::size_t i = 1; i < waits.size(); ++i) {
        EXPECT_GE(waits[i], waits[i - 1]);  // monotone non-decreasing
        EXPECT_DOUBLE_EQ(waits[i], 2.0 * waits[i - 1]);
      }
      if (waits.size() >= 2) ++multi_round_exchanges;
    }
    // p(loss)=0.4 over 400 reports: the doubling branch must have run.
    EXPECT_GT(multi_round_exchanges, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Removal-graveyard bound and compaction semantics (satellite).
// ---------------------------------------------------------------------------

/// The server's graveyard size, as its checkpoint reports it.
std::size_t tombs(const sim::Server& server) {
  return server.checkpoint(0).graveyard.size();
}

TEST(AlarmStoreGraveyardTest, CompactionKeepsTombsObservableByPendingStamps) {
  EngineWorld w;
  w.server.enable_dynamics(1);
  ASSERT_TRUE(w.server.remove_alarm(0, /*tick=*/10));
  ASSERT_EQ(tombs(w.server), 1u);

  // Watermark 9 < removed_at 10: a buffered report stamped inside the
  // alarm's lifetime may still arrive, so the tomb must survive…
  EXPECT_EQ(w.server.compact_graveyard(9), 0u);
  ASSERT_EQ(tombs(w.server), 1u);
  const auto fired = w.server.handle_buffered_update(0, {1500, 550}, 5);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 0u);

  // …and watermark == removed_at makes it unobservable: dropped.
  EXPECT_EQ(w.server.compact_graveyard(10), 1u);
  EXPECT_EQ(tombs(w.server), 0u);
}

TEST(AlarmStoreGraveyardTest, GraveyardStaysBoundedUnderSustainedChurn) {
  EngineWorld w;
  w.server.enable_dynamics(1);
  std::size_t high_water = 0;
  for (std::uint64_t t = 1; t <= 600; ++t) {
    alarms::SpatialAlarm a =
        crash_world_alarm(1000 + static_cast<alarms::AlarmId>(t),
                          Rect(100, 100, 300, 300));
    w.server.install_alarm(a, t);
    if (t > 1) {
      ASSERT_TRUE(
          w.server.remove_alarm(1000 + static_cast<alarms::AlarmId>(t - 1), t));
    }
    // The run loop compacts every tick with the pending-stamp watermark;
    // model a client lagging 5 ticks behind.
    if (t % 25 == 0) (void)w.server.compact_graveyard(t - 5);
    high_water = std::max(high_water, tombs(w.server));
  }
  // 599 removals total, but compaction holds the live set to the lag
  // window plus one compaction period — far below the removal count.
  EXPECT_LE(high_water, 32u);
  (void)w.server.compact_graveyard(601);
  EXPECT_EQ(tombs(w.server), 0u);
}

}  // namespace
}  // namespace salarm
