// Net tier tests (DESIGN.md §9): the fault-injecting channel, the
// reliability protocol of net::ClientLink, and the headline invariant —
// every strategy stays oracle-exact under arbitrary loss / delay /
// duplication / outage schedules, monolithic and sharded alike.
#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "cluster/sharded_server.h"
#include "core/experiment.h"
#include "failover/crash_plan.h"
#include "grid/grid_overlay.h"
#include "net/channel.h"
#include "net/link.h"
#include "saferegion/wire_format.h"
#include "sim/metrics.h"
#include "sim/server.h"

namespace salarm {
namespace {

using geo::Point;
using geo::Rect;

// ---------------------------------------------------------------------------
// Channel configuration and draw determinism.
// ---------------------------------------------------------------------------

TEST(ChannelConfigTest, AllZeroIsNotFaulty) {
  EXPECT_FALSE(net::ChannelConfig{}.faulty());
}

TEST(ChannelConfigTest, AnySingleKnobMakesItFaulty) {
  net::ChannelConfig c;
  c.uplink_loss = 0.1;
  EXPECT_TRUE(c.faulty());
  c = {};
  c.downlink_loss = 0.1;
  EXPECT_TRUE(c.faulty());
  c = {};
  c.duplicate_rate = 0.1;
  EXPECT_TRUE(c.faulty());
  c = {};
  c.latency_base_ms = 5.0;
  EXPECT_TRUE(c.faulty());
  c = {};
  c.outage_start_per_tick = 0.01;
  c.outage_mean_ticks = 2.0;
  EXPECT_TRUE(c.faulty());
}

TEST(ChannelConfigTest, ChannelRejectsInvalidConfigs) {
  net::ChannelConfig c;
  c.uplink_loss = 1.0;  // certain loss would never deliver anything
  EXPECT_THROW(net::FaultyChannel(c, 1, 1), PreconditionError);
  c = {};
  c.downlink_loss = -0.1;
  EXPECT_THROW(net::FaultyChannel(c, 1, 1), PreconditionError);
  c = {};
  c.duplicate_rate = 1.5;
  EXPECT_THROW(net::FaultyChannel(c, 1, 1), PreconditionError);
  c = {};
  c.outage_start_per_tick = 0.5;
  c.outage_mean_ticks = 0.5;  // outages must last at least one tick
  EXPECT_THROW(net::FaultyChannel(c, 1, 1), PreconditionError);
}

net::ChannelConfig full_fault_config() {
  net::ChannelConfig c;
  c.uplink_loss = 0.2;
  c.downlink_loss = 0.2;
  c.duplicate_rate = 0.15;
  c.latency_base_ms = 40.0;
  c.latency_jitter_ms = 80.0;
  c.outage_start_per_tick = 0.02;
  c.outage_mean_ticks = 3.0;
  return c;
}

TEST(FaultyChannelTest, SameSeedReplaysBitIdentically) {
  const auto config = full_fault_config();
  net::FaultyChannel a(config, 99, 4);
  net::FaultyChannel b(config, 99, 4);
  for (int i = 0; i < 500; ++i) {
    const alarms::SubscriberId s = static_cast<alarms::SubscriberId>(i % 4);
    EXPECT_EQ(a.lose_uplink(s), b.lose_uplink(s));
    EXPECT_EQ(a.lose_downlink(s), b.lose_downlink(s));
    EXPECT_EQ(a.duplicate(s), b.duplicate(s));
    EXPECT_EQ(a.latency_ms(s), b.latency_ms(s));
    EXPECT_EQ(a.outage_starts(s), b.outage_starts(s));
    EXPECT_EQ(a.outage_duration_ticks(s), b.outage_duration_ticks(s));
  }
}

TEST(FaultyChannelTest, SubscriberStreamsAreIndependent) {
  // Draws for subscriber 0 must not depend on whether (or how often) other
  // subscribers draw — the property that makes sharded runs bit-identical
  // at any thread count.
  const auto config = full_fault_config();
  net::FaultyChannel solo(config, 7, 2);
  net::FaultyChannel interleaved(config, 7, 2);
  std::vector<double> solo_draws;
  std::vector<double> interleaved_draws;
  for (int i = 0; i < 200; ++i) {
    solo_draws.push_back(solo.latency_ms(0));
    (void)interleaved.latency_ms(1);  // extra traffic on another session
    (void)interleaved.outage_duration_ticks(1);
    interleaved_draws.push_back(interleaved.latency_ms(0));
  }
  EXPECT_EQ(solo_draws, interleaved_draws);
}

TEST(FaultyChannelTest, OutageDurationsHaveAtLeastOneTick) {
  net::ChannelConfig c;
  c.outage_start_per_tick = 0.5;
  c.outage_mean_ticks = 4.0;
  net::FaultyChannel channel(c, 3, 1);
  double total = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const auto d = channel.outage_duration_ticks(0);
    EXPECT_GE(d, 1u);
    total += static_cast<double>(d);
  }
  const double mean = total / 2000.0;
  EXPECT_GT(mean, 2.0);  // loose band around the configured mean of 4
  EXPECT_LT(mean, 6.0);
}

// ---------------------------------------------------------------------------
// ClientLink protocol behaviour against a hand-built world.
// ---------------------------------------------------------------------------

/// One public alarm in the middle of the first cell's east neighbor,
/// mirroring strategies_test.cpp.
alarms::AlarmStore one_alarm_store() {
  alarms::AlarmStore store;
  alarms::SpatialAlarm alarm;
  alarm.id = 0;
  alarm.scope = alarms::AlarmScope::kPublic;
  alarm.region = Rect(1400, 400, 1700, 700);
  alarm.message = "test alert";
  store.install(std::move(alarm));
  return store;
}

/// 4 km x 4 km world with one public alarm served by a one-shard cluster,
/// the server surface every ClientLink talks to.
struct NetWorld {
  NetWorld() { server.set_active_shard(0); }

  const std::vector<alarms::TriggerEvent>& trigger_log() const {
    return server.shard_server(0).trigger_log();
  }

  grid::GridOverlay grid{Rect(0, 0, 4000, 4000), 4, 4};
  cluster::ShardedServer server{one_alarm_store(), grid, /*shard_count=*/1,
                                /*subscriber_count=*/1};
  const sim::Metrics& metrics = server.shard_metrics(0);
};

/// The same world as a bare per-shard engine, for the engine-level tests
/// that drive sim::Server directly.
struct EngineWorld {
  alarms::AlarmStore store = one_alarm_store();
  grid::GridOverlay grid{Rect(0, 0, 4000, 4000), 4, 4};
  sim::Metrics metrics;
  sim::Server server{store, grid, metrics};
};

TEST(ClientLinkTest, PerfectChannelIsPurePassThrough) {
  NetWorld w;
  net::ClientLink link(w.server, net::ChannelConfig{}, 5);
  EXPECT_FALSE(link.faulty());
  for (std::uint64_t t = 0; t < 10; ++t) {
    (void)link.report(0, {100, 100}, t);
  }
  // No protocol machinery ran: no sequence numbers, no ACKs, no samples.
  EXPECT_EQ(link.uplink_seq(0), 0u);
  EXPECT_EQ(w.metrics.uplink_messages, 10u);
  EXPECT_EQ(w.metrics.net_ack_messages, 0u);
  EXPECT_EQ(w.metrics.net_retransmissions, 0u);
  EXPECT_EQ(w.metrics.net_delivery_latency_ms.count(), 0u);
}

TEST(ClientLinkTest, LossForcesRetransmissionsAndInflatesBandwidth) {
  NetWorld w;
  net::ChannelConfig c;
  c.uplink_loss = 0.4;
  net::ClientLink link(w.server, c, 11);
  for (std::uint64_t t = 0; t < 400; ++t) {
    (void)link.report(0, {100, 100}, t);
  }
  EXPECT_EQ(w.metrics.uplink_messages,
            400u + w.metrics.net_retransmissions);
  EXPECT_GT(w.metrics.net_retransmissions, 0u);
  EXPECT_EQ(w.metrics.uplink_bytes,
            w.metrics.uplink_messages *
                wire::encoded_size(wire::PositionUpdate{}));
  EXPECT_EQ(link.uplink_seq(0), 400u);
}

TEST(ClientLinkTest, CertainDuplicationIsFullySuppressedAndCounted) {
  NetWorld w;
  net::ChannelConfig c;
  c.duplicate_rate = 1.0;  // the network copies every delivered payload
  net::ClientLink link(w.server, c, 13);
  for (std::uint64_t t = 0; t < 50; ++t) {
    (void)link.report(0, {100, 100}, t);
  }
  // No loss: one round per exchange, so exactly one suppressed copy and
  // two ACKs (one per received copy) per report.
  EXPECT_EQ(w.metrics.net_retransmissions, 0u);
  EXPECT_EQ(w.metrics.net_duplicates_dropped, 50u);
  EXPECT_EQ(w.metrics.net_ack_messages, 100u);
  EXPECT_EQ(w.metrics.net_ack_bytes, 100u * wire::encoded_size(wire::AckMsg{}));
  EXPECT_EQ(w.metrics.uplink_messages, 50u);  // duplicates are not reports
}

TEST(ClientLinkTest, PureDelayChannelRecordsTheLatencyDistribution) {
  NetWorld w;
  net::ChannelConfig c;
  c.latency_base_ms = 50.0;  // no jitter: every delivery takes exactly 50 ms
  net::ClientLink link(w.server, c, 17);
  for (std::uint64_t t = 0; t < 25; ++t) {
    (void)link.report(0, {100, 100}, t);
  }
  EXPECT_EQ(w.metrics.net_delivery_latency_ms.count(), 25u);
  EXPECT_DOUBLE_EQ(w.metrics.net_delivery_latency_ms.mean(), 50.0);
  EXPECT_DOUBLE_EQ(w.metrics.net_delivery_latency_ms.max(), 50.0);
}

TEST(ClientLinkTest, OutageBuffersReportsAndFlushFiresAtStampTicks) {
  NetWorld w;
  net::ChannelConfig c;
  c.outage_start_per_tick = 0.9;
  c.outage_mean_ticks = 50.0;  // long outages: stays down while we probe
  net::ClientLink link(w.server, c, 19);

  // Drive ticks until the carrier drops (p=0.9 per tick; bounded search).
  std::uint64_t t = 1;
  for (; t < 100 && !link.in_outage(0); ++t) link.begin_tick(t, {});
  ASSERT_TRUE(link.in_outage(0));

  // The client detects the loss as a synthetic revoke: lease fallback.
  const auto pushes = link.take_invalidations(0);
  ASSERT_EQ(pushes.size(), 1u);
  EXPECT_EQ(pushes[0].action, dynamics::InvalidationAction::kRevoke);
  EXPECT_TRUE(link.take_invalidations(0).empty());  // delivered once

  // Grant requests fail outright while disconnected.
  EXPECT_FALSE(link.request(0, {100, 100}, [](sim::Server& server) {
                     return server.compute_safe_period(0, {100, 100}, 20.0,
                                                       1.0);
                   }).has_value());

  // Reports inside the alarm region are buffered with their stamp ticks.
  EXPECT_TRUE(link.report(0, {1500, 550}, t).empty());
  EXPECT_TRUE(link.report(0, {1500, 551}, t + 1).empty());
  EXPECT_EQ(w.metrics.net_buffered_reports, 2u);
  EXPECT_EQ(w.metrics.uplink_messages, 0u);
  EXPECT_EQ(link.uplink_seq(0), 0u);

  // End-of-run flush: server-side checking fires the alarm exactly once,
  // at the first buffered sample's original tick.
  link.finish();
  EXPECT_EQ(link.uplink_seq(0), 2u);
  EXPECT_EQ(w.metrics.uplink_messages, 2u);
  ASSERT_EQ(w.trigger_log().size(), 1u);
  EXPECT_EQ(w.trigger_log()[0].alarm, 0u);
  EXPECT_EQ(w.trigger_log()[0].subscriber, 0u);
  EXPECT_EQ(w.trigger_log()[0].tick, t);
  EXPECT_GT(link.link_metrics().net_lease_fallback_ticks, 0u);
  EXPECT_EQ(link.link_metrics().net_outages, 1u);
}

// ---------------------------------------------------------------------------
// The gate of ClientLink::request, for every grant kind: outage, degraded
// mode, and pure pass-through on a perfect channel.
// ---------------------------------------------------------------------------

// The values are printed in the parameterized test names, so they stay
// fixed; 1 is unused.
enum class RequestKind { kRect, kPyramid = 2, kSafePeriod, kAlarmList };

/// Inside the alarm's cell, so every kind of grant has an alarm to avoid.
constexpr Point kGatePos{1100, 550};

saferegion::PyramidConfig gate_pyramid() {
  saferegion::PyramidConfig config;
  config.height = 3;
  return config;
}

/// A response flattened to exactly comparable numbers.
using Response = std::optional<std::vector<double>>;

std::vector<double> flatten(const saferegion::RectSafeRegion& r) {
  return {r.rect.lo().x, r.rect.lo().y, r.rect.hi().x, r.rect.hi().y,
          static_cast<double>(r.ops), r.inside_alarm ? 1.0 : 0.0};
}
std::vector<double> flatten(const saferegion::PyramidBitmap& b) {
  const auto bytes = wire::encode(wire::PyramidSafeRegionMsg::from(b));
  return std::vector<double>(bytes.begin(), bytes.end());
}
std::vector<double> flatten(double period) { return {period}; }
std::vector<double> flatten(const std::vector<const alarms::SpatialAlarm*>& l) {
  std::vector<double> ids;
  for (const alarms::SpatialAlarm* a : l) ids.push_back(a->id);
  return ids;
}
template <typename T>
Response flatten(const std::optional<T>& r) {
  if (!r.has_value()) return std::nullopt;
  return flatten(*r);
}

/// The grant call of each kind, as a strategy hands it to the link.
std::vector<double> grant(sim::Server& server, RequestKind kind) {
  switch (kind) {
    case RequestKind::kRect:
      return flatten(server.compute_rect_region(
          0, kGatePos, 0.0, saferegion::MotionModel::uniform(), {}));
    case RequestKind::kPyramid:
      return flatten(server.compute_pyramid_region(0, kGatePos,
                                                   gate_pyramid()));
    case RequestKind::kSafePeriod:
      return flatten(server.compute_safe_period(0, kGatePos, 20.0, 1.0));
    case RequestKind::kAlarmList:
      return flatten(server.push_alarms(0, kGatePos));
  }
  return {};
}

Response request_through(net::ClientLink& link, RequestKind kind) {
  return link.request(0, kGatePos,
                      [&](sim::Server& server) { return grant(server, kind); });
}

Response request_direct(cluster::ShardedServer& server, RequestKind kind) {
  return grant(server.contact(0, kGatePos), kind);
}

class RequestGateTest : public ::testing::TestWithParam<RequestKind> {};

TEST_P(RequestGateTest, ChannelOutageReturnsNullopt) {
  NetWorld w;
  net::ChannelConfig c;
  c.outage_start_per_tick = 0.9;
  c.outage_mean_ticks = 50.0;
  net::ClientLink link(w.server, c, 19);
  for (std::uint64_t t = 1; t < 100 && !link.in_outage(0); ++t) {
    link.begin_tick(t, {});
  }
  ASSERT_TRUE(link.in_outage(0));
  EXPECT_FALSE(request_through(link, GetParam()).has_value());
}

TEST_P(RequestGateTest, DownShardReturnsNulloptAndChargesNoServerWork) {
  NetWorld w;
  const failover::CrashPlan plan(
      std::vector<std::vector<failover::CrashWindow>>{{{2, 5}}}, 10);
  w.server.enable_failover(failover::FailoverConfig{}, plan);
  net::ClientLink link(w.server, net::ChannelConfig{}, 1);
  w.server.begin_failover_tick(2);
  ASSERT_TRUE(w.server.shard_down(0));
  const std::vector<mobility::VehicleSample> samples{{kGatePos, 0.0, 0.0}};
  link.begin_tick(2, samples);

  const sim::Metrics before = w.metrics;
  EXPECT_FALSE(request_through(link, GetParam()).has_value());
  EXPECT_EQ(w.metrics, before);
}

TEST_P(RequestGateTest, PerfectChannelReturnsExactlyTheDirectCall) {
  NetWorld via_link;
  NetWorld direct;
  net::ClientLink link(via_link.server, net::ChannelConfig{}, 1);
  const Response got = request_through(link, GetParam());
  const Response want = request_direct(direct.server, GetParam());
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got, want);
  EXPECT_EQ(via_link.metrics.safe_region_recomputes, 1u);
  EXPECT_EQ(via_link.metrics, direct.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    AllRequestKinds, RequestGateTest,
    ::testing::Values(RequestKind::kRect, RequestKind::kPyramid,
                      RequestKind::kSafePeriod, RequestKind::kAlarmList),
    [](const ::testing::TestParamInfo<RequestKind>& info) {
      switch (info.param) {
        case RequestKind::kRect: return std::string("Rect");
        case RequestKind::kPyramid: return std::string("Pyramid");
        case RequestKind::kSafePeriod: return std::string("SafePeriod");
        case RequestKind::kAlarmList: return std::string("AlarmList");
      }
      return std::string("Unknown");
    });

// ---------------------------------------------------------------------------
// Temporal evaluation of buffered reports against alarm churn.
// ---------------------------------------------------------------------------

TEST(BufferedUpdateTest, IgnoresAlarmsInstalledAfterTheStamp) {
  EngineWorld w;
  w.server.enable_dynamics(1);
  alarms::SpatialAlarm late;
  late.id = 9;
  late.scope = alarms::AlarmScope::kPublic;
  late.region = Rect(3000, 3000, 3300, 3300);
  w.server.install_alarm(late, /*tick=*/5);

  // Stamp 3 predates the install: the report was taken when the alarm did
  // not exist, so it must not fire.
  EXPECT_TRUE(w.server.handle_buffered_update(0, {3100, 3100}, 3).empty());
  // Stamp 6 postdates it: fires.
  const auto fired = w.server.handle_buffered_update(0, {3100, 3100}, 6);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 9u);
}

TEST(BufferedUpdateTest, RemovedAlarmStillFiresFromTheGraveyard) {
  EngineWorld w;
  w.server.enable_dynamics(1);
  ASSERT_TRUE(w.server.remove_alarm(0, /*tick=*/5));

  // Stamp 6 is after the removal: nothing to fire.
  EXPECT_TRUE(w.server.handle_buffered_update(0, {1500, 550}, 6).empty());
  // Stamp 3 is within the alarm's lifetime: the graveyard serves the fire,
  // exactly once.
  const auto fired = w.server.handle_buffered_update(0, {1500, 550}, 3);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 0u);
  EXPECT_TRUE(w.server.handle_buffered_update(0, {1500, 550}, 3).empty());
  ASSERT_EQ(w.server.trigger_log().size(), 1u);
  EXPECT_EQ(w.server.trigger_log()[0].tick, 3u);
}

// ---------------------------------------------------------------------------
// The channel phase in subscriber chunks (DESIGN.md §9): the outage and
// degraded-mode machines run on the pool, the flushes serially after them.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over the exact bits of the values fed to it.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const RunningStat& s) {
    add(static_cast<std::uint64_t>(s.count()));
    add(s.sum());
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
  }
  void add(const sim::Metrics& m) {
    for (const std::uint64_t v :
         {m.uplink_messages, m.uplink_bytes, m.downstream_region_bytes,
          m.downstream_notice_bytes, m.client_checks, m.client_check_ops,
          m.server_alarm_ops, m.server_region_ops, m.handoff_messages,
          m.handoff_bytes, m.alarms_installed, m.alarms_removed,
          m.invalidation_pushes, m.invalidation_bytes, m.net_retransmissions,
          m.net_duplicates_dropped, m.net_ack_messages, m.net_ack_bytes,
          m.net_lease_fallback_ticks, m.net_buffered_reports, m.net_outages,
          m.fo_crashes, m.fo_recoveries, m.fo_recovery_ticks,
          m.fo_checkpoints, m.fo_checkpoint_bytes, m.fo_journal_records,
          m.fo_journal_bytes, m.fo_journal_replays, m.fo_redo_events,
          m.fo_reregistrations, m.fo_reregistration_bytes, m.fo_grant_voids,
          m.fo_degraded_ticks, m.fo_buffered_reports,
          m.safe_region_recomputes, m.triggers}) {
      add(v);
    }
    add(m.net_delivery_latency_ms);
    add(m.region_payload_bytes);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

struct ChannelPhaseRun {
  std::uint64_t digest = 0;
  sim::Metrics link_metrics;
};

/// `n` subscribers random-walk an 8 km x 8 km, four-shard world under a
/// lossy, outage-prone channel and a drawn crash plan, stepped in the
/// pipeline's serial order with the channel phase on `threads` threads.
/// The digest covers every subscriber's outage flag, sequence number and
/// last backoffs, every link metric (statistics bit for bit) and the merged
/// trigger log.
ChannelPhaseRun run_channel_phase(std::size_t n, std::size_t threads) {
  constexpr std::uint64_t kTicks = 80;
  const Rect universe(0, 0, 8000, 8000);
  const grid::GridOverlay grid(universe, 8, 8);
  alarms::AlarmStore store;
  alarms::AlarmWorkloadConfig workload;
  workload.alarm_count = 300;
  workload.subscriber_count = n;
  workload.public_fraction = 0.3;
  Rng alarm_rng(71);
  store.install_bulk(
      alarms::generate_alarm_workload(workload, universe, alarm_rng));

  cluster::ShardedServer server(store, grid, /*shard_count=*/4, n);
  server.enable_dynamics();
  failover::FailoverConfig crashes;
  crashes.crash_per_tick = 0.04;
  crashes.crash_mean_down_ticks = 3.0;
  crashes.checkpoint_interval_ticks = 10;
  const failover::CrashPlan plan(crashes, server.shard_count(), kTicks, 29);
  server.enable_failover(crashes, plan);
  net::ChannelConfig channel;
  channel.uplink_loss = 0.2;
  channel.downlink_loss = 0.2;
  channel.duplicate_rate = 0.1;
  channel.latency_base_ms = 20.0;
  channel.latency_jitter_ms = 30.0;
  channel.outage_start_per_tick = 0.05;
  channel.outage_mean_ticks = 3.0;
  net::ClientLink link(server, channel, 37);

  Rng walk(43);
  std::vector<mobility::VehicleSample> samples(n);
  for (auto& v : samples) {
    v.pos = {walk.uniform(0.0, 8000.0), walk.uniform(0.0, 8000.0)};
  }
  for (std::uint64_t t = 1; t < kTicks; ++t) {
    server.begin_failover_tick(t);
    server.take_due_checkpoints(t, threads);
    for (auto& v : samples) {
      v.pos = {std::clamp(v.pos.x + walk.uniform(-150.0, 150.0), 0.0, 8000.0),
               std::clamp(v.pos.y + walk.uniform(-150.0, 150.0), 0.0, 8000.0)};
    }
    link.begin_tick(t, samples, threads);
    for (std::size_t i = 0; i < n; ++i) {
      const auto s = static_cast<alarms::SubscriberId>(i);
      server.set_active_shard(server.map().shard_of(samples[i].pos));
      (void)link.take_invalidations(s);
      (void)link.report(s, samples[i].pos, t);
    }
  }
  (void)server.finish_failover(kTicks);
  link.finish();

  Digest d;
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<alarms::SubscriberId>(i);
    d.add(static_cast<std::uint64_t>(link.in_outage(s)));
    d.add(static_cast<std::uint64_t>(link.uplink_seq(s)));
    d.add(static_cast<std::uint64_t>(link.last_exchange_backoffs(s).size()));
    for (const double b : link.last_exchange_backoffs(s)) d.add(b);
  }
  d.add(link.link_metrics());
  for (const alarms::TriggerEvent& e : server.merged_trigger_log()) {
    d.add(e.tick);
    d.add(static_cast<std::uint64_t>(e.subscriber));
    d.add(static_cast<std::uint64_t>(e.alarm));
  }
  return {d.value(), link.link_metrics()};
}

class ClientLinkChannelPhaseTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ClientLinkChannelPhaseTest, ChunksAreBitIdenticalAcrossThreadCounts) {
  const std::size_t n = GetParam();
  // Digests of the same scenario under the serial channel phase it
  // replaced, which walked every subscriber on the caller.
  const std::map<std::size_t, std::uint64_t> serial_digest = {
      {1, 16075785403499953691ULL},  {127, 12521866794079566288ULL},
      {128, 1349834349385823349ULL}, {129, 10834259227873269180ULL},
      {300, 7529952999633604722ULL}};
  const ChannelPhaseRun ref = run_channel_phase(n, 1);
  EXPECT_EQ(ref.digest, serial_digest.at(n));
  // The scenario reaches every machine: outages, crash voids, degraded
  // ticks and flushed backlogs.
  EXPECT_GT(ref.link_metrics.net_outages, 0u);
  EXPECT_GT(ref.link_metrics.fo_grant_voids, 0u);
  EXPECT_GT(ref.link_metrics.fo_degraded_ticks, 0u);
  EXPECT_GT(ref.link_metrics.net_delivery_latency_ms.count(), 0u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(run_channel_phase(n, threads).digest, ref.digest)
        << n << " subscribers at " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkEdges, ClientLinkChannelPhaseTest,
                         ::testing::Values(std::size_t{1}, std::size_t{127},
                                           std::size_t{128}, std::size_t{129},
                                           std::size_t{300}));

// ---------------------------------------------------------------------------
// Integration: oracle-exactness for every strategy under chaos schedules.
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

/// Chaos schedule for a given loss rate: delay + jitter (reordering),
/// duplication and burst outages are always on, so even the loss=0 corner
/// exercises every fault class except drops.
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

void expect_perfect_chaos(const sim::RunResult& r) {
  EXPECT_EQ(r.accuracy.missed, 0u) << r.strategy;
  EXPECT_EQ(r.accuracy.spurious, 0u) << r.strategy;
  EXPECT_EQ(r.accuracy.late, 0u) << r.strategy;
  EXPECT_GT(r.accuracy.expected, 0u) << "workload produced no triggers";
}

using ChaosParam = std::tuple<std::string, int, std::uint64_t>;

class ChaosAccuracyTest : public ::testing::TestWithParam<ChaosParam> {};

TEST_P(ChaosAccuracyTest, StrategyStaysOracleExactUnderChaos) {
  const auto& [name, loss_pct, seed] = GetParam();
  core::Experiment experiment(chaos_experiment_config(seed));
  experiment.enable_channel(chaos_channel(loss_pct / 100.0));
  const auto run =
      experiment.simulation().run(chaos_factory(experiment, name));
  expect_perfect_chaos(run);
  // The protocol must have actually worked for its exactness: outages
  // forced lease fallbacks, duplication was suppressed, and (when lossy)
  // retransmissions happened.
  EXPECT_GT(run.metrics.net_outages, 0u) << name;
  EXPECT_GT(run.metrics.net_lease_fallback_ticks, 0u) << name;
  EXPECT_GT(run.metrics.net_duplicates_dropped, 0u) << name;
  EXPECT_GT(run.metrics.net_delivery_latency_ms.count(), 0u) << name;
  if (loss_pct > 0) {
    EXPECT_GT(run.metrics.net_retransmissions, 0u) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ChaosAccuracyTest,
    ::testing::Combine(::testing::Values("prd", "sp", "mwpsr", "gbsr", "pbsr",
                                         "pbsr_cached", "opt"),
                       ::testing::Values(0, 5, 20, 50),
                       ::testing::Values(7u, 11u, 23u)),
    [](const ::testing::TestParamInfo<ChaosParam>& info) {
      return std::get<0>(info.param) + "_loss" +
             std::to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ChaosReplayTest, FaultScheduleReplaysBitIdentically) {
  core::Experiment experiment(chaos_experiment_config(31));
  experiment.enable_channel(chaos_channel(0.2));
  const auto factory = experiment.rect(saferegion::MotionModel(1.0, 32));
  const auto first = experiment.simulation().run(factory);
  // A different strategy in between must not perturb the channel replay.
  (void)experiment.simulation().run(experiment.optimal());
  const auto again = experiment.simulation().run(factory);
  EXPECT_EQ(again.trigger_log, first.trigger_log);
  EXPECT_EQ(again.metrics.uplink_messages, first.metrics.uplink_messages);
  EXPECT_EQ(again.metrics.net_retransmissions,
            first.metrics.net_retransmissions);
  EXPECT_EQ(again.metrics.net_duplicates_dropped,
            first.metrics.net_duplicates_dropped);
  EXPECT_EQ(again.metrics.net_outages, first.metrics.net_outages);
  EXPECT_EQ(again.metrics.net_buffered_reports,
            first.metrics.net_buffered_reports);
  EXPECT_EQ(again.metrics.net_delivery_latency_ms.sum(),
            first.metrics.net_delivery_latency_ms.sum());
}

TEST(ChaosChurnTest, FaultsAndChurnComposeWithoutLosingExactness) {
  for (const char* name : {"mwpsr", "pbsr", "opt"}) {
    core::Experiment experiment(chaos_experiment_config(43));
    experiment.enable_churn(experiment.churn_config(/*installs_per_tick=*/1.0,
                                                    /*removes_per_tick=*/0.5));
    experiment.enable_channel(chaos_channel(0.2));
    const auto run =
        experiment.simulation().run(chaos_factory(experiment, name));
    expect_perfect_chaos(run);
    EXPECT_GT(run.metrics.alarms_installed, 0u) << name;
    EXPECT_GT(run.metrics.net_retransmissions, 0u) << name;
  }
}

// ---------------------------------------------------------------------------
// Sharded chaos: bit-identical at any thread count, faults included.
// ---------------------------------------------------------------------------

void expect_bit_identical_with_net(const sim::RunResult& a,
                                   const sim::RunResult& b) {
  EXPECT_EQ(b.trigger_log, a.trigger_log);
  EXPECT_EQ(b.metrics, a.metrics);
}

class ShardedChaosTest : public ::testing::Test {
 protected:
  void check(const std::string& name) {
    core::Experiment experiment(chaos_experiment_config(53));
    experiment.enable_channel(chaos_channel(0.2));
    const auto factory = chaos_factory(experiment, name);
    const auto ref = experiment.simulation().run_sharded(
        factory, {.shards = 4, .threads = 1});
    expect_perfect_chaos(ref);
    EXPECT_GT(ref.metrics.net_retransmissions, 0u) << name;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      expect_bit_identical_with_net(
          ref, experiment.simulation().run_sharded(
                   factory, {.shards = 4, .threads = threads}));
    }
  }
};

TEST_F(ShardedChaosTest, MwpsrBitIdenticalAcrossThreadCounts) {
  check("mwpsr");
}

TEST_F(ShardedChaosTest, SafePeriodBitIdenticalAcrossThreadCounts) {
  check("sp");
}

TEST_F(ShardedChaosTest, PbsrBitIdenticalAcrossThreadCounts) {
  check("pbsr");
}

TEST_F(ShardedChaosTest, OptBitIdenticalAcrossThreadCounts) { check("opt"); }

TEST(ShardedChaosTest2, PassthroughChannelMatchesNoChannelBitForBit) {
  // The all-zero config must be a provable no-op: a run with set_channel({})
  // is indistinguishable from one that never touched the channel API.
  core::Experiment experiment(chaos_experiment_config(61));
  const auto factory = experiment.rect(saferegion::MotionModel(1.0, 32));
  const auto bare = experiment.simulation().run(factory);
  experiment.enable_channel(net::ChannelConfig{});
  const auto with_channel = experiment.simulation().run(factory);
  expect_bit_identical_with_net(bare, with_channel);
  EXPECT_EQ(with_channel.metrics.net_ack_messages, 0u);
  EXPECT_EQ(with_channel.metrics.net_delivery_latency_ms.count(), 0u);
}

}  // namespace
}  // namespace salarm
