// Behavioral unit tests of the five processing strategies against a
// hand-built world (alarms + grid + one-shard cluster behind a perfect
// link), independent of the trace generator: exactly when does each
// strategy talk to the server, what does it cost, and how does it react to
// triggers.
#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "cluster/sharded_server.h"
#include "grid/grid_overlay.h"
#include "net/link.h"
#include "strategies/bitmap_region_strategy.h"
#include "strategies/optimal.h"
#include "strategies/periodic.h"
#include "strategies/rect_region_strategy.h"
#include "strategies/safe_period.h"

namespace salarm::strategies {
namespace {

using geo::Point;
using geo::Rect;

/// The world's one public alarm, in the middle of the first cell's east
/// neighbor.
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

/// A 4 km x 4 km world with 1 km cells served by a one-shard cluster over
/// `alarms` (installed before the cluster slices them).
struct World {
  explicit World(const alarms::AlarmStore& alarms = one_alarm_store())
      : server(alarms, grid, /*shard_count=*/1, /*subscriber_count=*/8) {
    server.set_active_shard(0);
  }

  mobility::VehicleSample at(double x, double y, double heading = 0.0) {
    return {{x, y}, heading, 15.0};
  }

  grid::GridOverlay grid{Rect(0, 0, 4000, 4000), 4, 4};
  cluster::ShardedServer server;
  const sim::Metrics& metrics = server.shard_metrics(0);
  const alarms::AlarmStore& store = server.shard_store(0);
  /// Perfect pass-through link (all-zero ChannelConfig): these tests pin
  /// down strategy behaviour; the faulty-channel behaviour lives in
  /// net_test.cpp.
  net::ClientLink link{server, net::ChannelConfig{}, 0};
};

TEST(PeriodicStrategyTest, SendsEverySample) {
  World w;
  PeriodicStrategy prd(w.link);
  prd.initialize(0, w.at(100, 100));
  for (std::uint64_t t = 1; t <= 10; ++t) {
    prd.on_tick(0, w.at(100.0 + 10 * static_cast<double>(t), 100), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, 11u);
  EXPECT_EQ(w.metrics.client_checks, 0u);  // no client-side smarts
  EXPECT_EQ(w.metrics.downstream_region_bytes, 0u);
}

TEST(SafePeriodStrategyTest, StaysSilentUntilExpiry) {
  World w;
  // True speed 15 m/s; subscriber starts 900+ m from the alarm region, so
  // the first grant is tens of seconds long.
  SafePeriodStrategy sp(w.link, /*max_speed=*/20.0, /*tick=*/1.0);
  sp.initialize(0, w.at(100, 550));
  EXPECT_EQ(w.metrics.uplink_messages, 1u);
  const double distance = Rect(1400, 400, 1700, 700).distance({100, 550});
  const auto expected_expiry = static_cast<std::uint64_t>(distance / 20.0);
  // Silent strictly before the expiry tick.
  for (std::uint64_t t = 1; t < expected_expiry; ++t) {
    sp.on_tick(0, w.at(100 + 15.0 * static_cast<double>(t), 550), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, 1u);
  // At (or right after) expiry it reports again.
  sp.on_tick(0, w.at(100 + 15.0 * static_cast<double>(expected_expiry), 550),
             expected_expiry);
  EXPECT_EQ(w.metrics.uplink_messages, 2u);
}

TEST(SafePeriodStrategyTest, NoRelevantAlarmsMeansOneMessageEver) {
  World w{alarms::AlarmStore{}};  // no alarm relevant to subscriber 0
  SafePeriodStrategy sp(w.link, 20.0, 1.0);
  sp.initialize(0, w.at(100, 100));
  for (std::uint64_t t = 1; t <= 500; ++t) {
    sp.on_tick(0, w.at(100 + static_cast<double>(t), 100), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, 1u);
}

TEST(RectRegionStrategyTest, OneCheckPerTickAndReportOnExit) {
  World w;
  RectRegionStrategy rect(w.link, saferegion::MotionModel::uniform());
  rect.initialize(0, w.at(500, 550));
  EXPECT_EQ(w.metrics.uplink_messages, 1u);
  EXPECT_EQ(w.metrics.safe_region_recomputes, 1u);
  const auto bytes_after_init = w.metrics.downstream_region_bytes;
  EXPECT_EQ(bytes_after_init, wire::encoded_size(wire::RectSafeRegionMsg{}));

  // Wandering inside the first cell, far from the alarm: checks but no
  // messages (the region spans the whole empty cell).
  for (std::uint64_t t = 1; t <= 20; ++t) {
    rect.on_tick(0, w.at(500 + static_cast<double>(t), 550), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, 1u);
  EXPECT_EQ(w.metrics.client_checks, 20u);
  EXPECT_EQ(w.metrics.client_check_ops, 20u);  // rect check = 1 op

  // Jump across the cell border: must report and refresh.
  rect.on_tick(0, w.at(1100, 550), 21);
  EXPECT_EQ(w.metrics.uplink_messages, 2u);
  EXPECT_EQ(w.metrics.safe_region_recomputes, 2u);
  EXPECT_GT(w.metrics.downstream_region_bytes, bytes_after_init);
}

TEST(RectRegionStrategyTest, TriggersWhenEnteringAlarm) {
  World w;
  RectRegionStrategy rect(w.link, saferegion::MotionModel::uniform());
  rect.initialize(0, w.at(1100, 550));
  // Step into the alarm region; the region must have excluded it, so the
  // client reports and the server fires the alarm.
  rect.on_tick(0, w.at(1500, 550), 1);
  EXPECT_EQ(w.metrics.triggers, 1u);
  EXPECT_TRUE(w.store.spent(0, 0));
  EXPECT_GT(w.metrics.downstream_notice_bytes, 0u);
  // After the trigger, the same spot is safe (one-shot): region grows and
  // the subscriber can sit there silently.
  const auto msgs = w.metrics.uplink_messages;
  for (std::uint64_t t = 2; t <= 10; ++t) {
    rect.on_tick(0, w.at(1500, 550), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, msgs);
}

TEST(BitmapRegionStrategyTest, RefreshOnCellExitOnly) {
  World w;
  saferegion::PyramidConfig cfg;
  cfg.height = 3;
  BitmapRegionStrategy pbsr(w.link, cfg);
  pbsr.initialize(0, w.at(500, 550));
  EXPECT_EQ(w.metrics.safe_region_recomputes, 1u);

  // Inside the (empty, fully safe) cell: no contact at all.
  for (std::uint64_t t = 1; t <= 10; ++t) {
    pbsr.on_tick(0, w.at(500 + static_cast<double>(t) * 20, 550), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, 1u);
  EXPECT_EQ(w.metrics.safe_region_recomputes, 1u);

  // Cross into the alarm's cell: one report, one refresh.
  pbsr.on_tick(0, w.at(1100, 550), 11);
  EXPECT_EQ(w.metrics.uplink_messages, 2u);
  EXPECT_EQ(w.metrics.safe_region_recomputes, 2u);

  // Standing just outside the alarm inside an unsafe sliver: reports every
  // tick but never recomputes (paper §4.2).
  const auto recomputes = w.metrics.safe_region_recomputes;
  const auto msgs = w.metrics.uplink_messages;
  for (std::uint64_t t = 12; t <= 15; ++t) {
    pbsr.on_tick(0, w.at(1399, 550), t);  // 1 m west of the alarm edge
  }
  EXPECT_EQ(w.metrics.safe_region_recomputes, recomputes);
  EXPECT_EQ(w.metrics.uplink_messages, msgs + 4);
}

TEST(BitmapRegionStrategyTest, TriggerRefreshesBitmap) {
  World w;
  saferegion::PyramidConfig cfg;
  cfg.height = 4;
  BitmapRegionStrategy pbsr(w.link, cfg);
  pbsr.initialize(0, w.at(1100, 550));
  const auto recomputes = w.metrics.safe_region_recomputes;
  // Step into the alarm: report fires the alarm, and per §4.2 the bitmap
  // is refreshed with the triggered alarm now part of the safe region.
  pbsr.on_tick(0, w.at(1500, 550), 1);
  EXPECT_EQ(w.metrics.triggers, 1u);
  EXPECT_EQ(w.metrics.safe_region_recomputes, recomputes + 1);
  // The refreshed bitmap marks the spent alarm safe: silence follows.
  const auto msgs = w.metrics.uplink_messages;
  for (std::uint64_t t = 2; t <= 8; ++t) {
    pbsr.on_tick(0, w.at(1500, 550), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, msgs);
}

TEST(OptimalStrategyTest, PushesOnCellChangeAndReportsOnlyTriggers) {
  World w;
  OptimalStrategy opt(w.link);
  opt.initialize(0, w.at(1100, 550));  // the alarm's cell
  EXPECT_EQ(w.metrics.uplink_messages, 1u);
  const auto push_bytes = w.metrics.downstream_region_bytes;
  EXPECT_GT(push_bytes, 0u);

  // Wandering in the cell outside the alarm: per-tick scans, no messages.
  for (std::uint64_t t = 1; t <= 10; ++t) {
    opt.on_tick(0, w.at(1100, 540 + static_cast<double>(t)), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, 1u);
  EXPECT_EQ(w.metrics.downstream_region_bytes, push_bytes);
  // Each tick costs 1 (cell test) + 1 (one pushed alarm).
  EXPECT_EQ(w.metrics.client_check_ops, 20u);

  // Entering the alarm: exactly one report, client prunes its copy.
  opt.on_tick(0, w.at(1500, 550), 11);
  EXPECT_EQ(w.metrics.uplink_messages, 2u);
  EXPECT_EQ(w.metrics.triggers, 1u);
  for (std::uint64_t t = 12; t <= 20; ++t) {
    opt.on_tick(0, w.at(1500, 550), t);
  }
  EXPECT_EQ(w.metrics.uplink_messages, 2u);
}

TEST(StrategyNamesTest, ReportCorrectly) {
  World w;
  EXPECT_EQ(PeriodicStrategy(w.link).name(), "PRD");
  EXPECT_EQ(SafePeriodStrategy(w.link, 20, 1).name(), "SP");
  EXPECT_EQ(RectRegionStrategy(w.link,
                               saferegion::MotionModel::uniform())
                .name(),
            "MWPSR");
  saferegion::MwpsrOptions non_weighted;
  non_weighted.weighted = false;
  EXPECT_EQ(RectRegionStrategy(w.link,
                               saferegion::MotionModel::uniform(),
                               non_weighted)
                .name(),
            "RECT");
  saferegion::PyramidConfig gbsr;
  gbsr.height = 1;
  EXPECT_EQ(BitmapRegionStrategy(w.link, gbsr).name(), "GBSR");
  saferegion::PyramidConfig pbsr;
  pbsr.height = 5;
  EXPECT_EQ(BitmapRegionStrategy(w.link, pbsr).name(), "PBSR");
  EXPECT_EQ(OptimalStrategy(w.link).name(), "OPT");
}

}  // namespace
}  // namespace salarm::strategies
