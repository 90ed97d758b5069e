// End-to-end tests of the public facade: SpatialAlarmService (server) +
// ClientMonitor (device) talking through real wire messages.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/client_monitor.h"
#include "core/spatial_alarm_service.h"
#include "saferegion/wire_format.h"

namespace salarm::core {
namespace {

using geo::Point;
using geo::Rect;

SpatialAlarmService::Config test_config() {
  SpatialAlarmService::Config cfg;
  cfg.universe = Rect(0, 0, 10000, 10000);
  cfg.grid_cell_area_sqm = 4e6;  // 2 km x 2 km cells
  return cfg;
}

TEST(SpatialAlarmServiceTest, InstallAssignsDenseIds) {
  SpatialAlarmService service(test_config());
  const auto a = service.install(alarms::AlarmScope::kPrivate, 1,
                                 Rect(100, 100, 300, 300));
  const auto b = service.install(alarms::AlarmScope::kPublic, 0,
                                 Rect(500, 500, 700, 700));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(service.alarm_count(), 2u);
  EXPECT_TRUE(service.uninstall(a));
  EXPECT_FALSE(service.uninstall(a));
  EXPECT_EQ(service.alarm_count(), 1u);
}

TEST(SpatialAlarmServiceTest, RejectedInstallDoesNotConsumeAnId) {
  SpatialAlarmService service(test_config());
  const auto a = service.install(alarms::AlarmScope::kPublic, 0,
                                 Rect(100, 100, 300, 300));
  // Zero-area region inside the universe: the store rejects it.
  EXPECT_THROW(service.install(alarms::AlarmScope::kPublic, 0,
                               Rect(500, 500, 500, 700)),
               PreconditionError);
  // A public alarm may not carry a subscriber list.
  EXPECT_THROW(service.install(alarms::AlarmScope::kPublic, 0,
                               Rect(500, 500, 700, 700), {1, 2}),
               PreconditionError);
  const auto b = service.install(alarms::AlarmScope::kPublic, 0,
                                 Rect(500, 500, 700, 700));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);  // the next dense id
  EXPECT_EQ(service.alarm_count(), 2u);
}

TEST(SpatialAlarmServiceTest, RejectsOutOfUniverseInput) {
  SpatialAlarmService service(test_config());
  EXPECT_THROW(service.install(alarms::AlarmScope::kPublic, 0,
                               Rect(9000, 9000, 11000, 11000)),
               PreconditionError);
  EXPECT_THROW(service.process_update(1, {-5, 0}, 0.0, 0),
               PreconditionError);
}

TEST(SpatialAlarmServiceTest, FiresOnEntryOncePerSubscriber) {
  SpatialAlarmService service(test_config());
  const auto id = service.install(alarms::AlarmScope::kPublic, 0,
                                  Rect(1000, 1000, 1500, 1500));
  auto r1 = service.process_update(7, {1200, 1200}, 0.0, 5);
  ASSERT_EQ(r1.fired.size(), 1u);
  EXPECT_EQ(r1.fired[0], id);
  // One-shot per subscriber.
  EXPECT_TRUE(service.process_update(7, {1200, 1200}, 0.0, 6).fired.empty());
  // Other subscribers still fire.
  EXPECT_EQ(service.process_update(8, {1100, 1100}, 0.0, 7).fired.size(), 1u);
  ASSERT_EQ(service.trigger_log().size(), 2u);
  EXPECT_EQ(service.trigger_log()[0].tick, 5u);
}

TEST(SpatialAlarmServiceTest, PrivateAlarmsOnlyFireForSubscribers) {
  SpatialAlarmService service(test_config());
  service.install(alarms::AlarmScope::kPrivate, 3, Rect(0, 0, 500, 500));
  EXPECT_TRUE(service.process_update(4, {100, 100}, 0.0, 0).fired.empty());
  EXPECT_EQ(service.process_update(3, {100, 100}, 0.0, 0).fired.size(), 1u);
}

TEST(SpatialAlarmServiceTest, MoveKeepsIdAndTriggerState) {
  SpatialAlarmService service(test_config());
  const auto id = service.install(alarms::AlarmScope::kPublic, 0,
                                  Rect(1000, 1000, 1400, 1400));
  EXPECT_EQ(service.process_update(1, {1200, 1200}, 0.0, 0).fired.size(),
            1u);
  service.move(id, Rect(5000, 5000, 5400, 5400));
  // Subscriber 1 already consumed the alarm; subscriber 2 gets it at the
  // new place.
  EXPECT_TRUE(service.process_update(1, {5200, 5200}, 0.0, 1).fired.empty());
  EXPECT_EQ(service.process_update(2, {5200, 5200}, 0.0, 2).fired.size(),
            1u);
  EXPECT_THROW(service.move(id, Rect(9000, 9000, 11000, 11000)),
               PreconditionError);
}

TEST(SpatialAlarmServiceTest, UniverseEdgeUpdates) {
  // 32 km / 11 columns does not land exactly on the universe's hi edge, and
  // floor(offset / w) can miss an interior cell edge by one ulp: a report
  // there must still get a safe region around its own position.
  struct Case {
    double area;
    Point position;
  };
  const Case cases[] = {
      {9e6, {32000, 16000}},
      {9e6, {16000, 32000}},
      {9e6, {32000, 32000}},
      {3e5, {1655.1724137931035, 16000}},
  };
  for (const RegionKind kind : {RegionKind::kRect, RegionKind::kPyramid}) {
    for (const Case& c : cases) {
      SpatialAlarmService::Config cfg;
      cfg.grid_cell_area_sqm = c.area;
      SpatialAlarmService service(cfg);
      ClientMonitor monitor;
      const auto update = service.process_update(7, c.position, 0.0, 1, kind);
      monitor.receive(update.safe_region_message);
      EXPECT_FALSE(monitor.should_report(c.position))
          << "(" << c.position.x << ", " << c.position.y << ") kind "
          << static_cast<int>(kind);
    }
  }
}

TEST(SpatialAlarmServiceTest, GoldenSession) {
  // A scripted session over every facade entry point. The fired ids and the
  // FNV-1a digest of every safe-region message pin the server's output
  // byte for byte.
  auto cfg = test_config();
  cfg.pyramid.height = 4;
  SpatialAlarmService service(cfg);
  using alarms::AlarmScope;
  EXPECT_EQ(
      service.install(AlarmScope::kPublic, 0, Rect(1000, 1000, 1500, 1500)),
      0u);
  EXPECT_EQ(
      service.install(AlarmScope::kPrivate, 3, Rect(2500, 500, 2900, 900)),
      1u);
  EXPECT_EQ(service.install(AlarmScope::kShared, 3,
                            Rect(4200, 4200, 4800, 4600), {3, 5}),
            2u);
  EXPECT_EQ(
      service.install(AlarmScope::kPublic, 0, Rect(6100, 6100, 6600, 6900)),
      3u);

  std::uint64_t digest = 14695981039346656037ull;
  std::vector<std::vector<alarms::AlarmId>> fired;
  auto update = [&](alarms::SubscriberId s, Point p, double heading,
                    std::uint64_t tick, RegionKind kind) {
    const auto result = service.process_update(s, p, heading, tick, kind);
    for (const std::uint8_t byte : result.safe_region_message) {
      digest = (digest ^ byte) * 1099511628211ull;
    }
    fired.push_back(result.fired);
  };
  const auto kRect = RegionKind::kRect;
  const auto kPyramid = RegionKind::kPyramid;
  update(1, {900, 900}, 0.0, 0, kRect);
  update(1, {1200, 1200}, 0.7, 1, kRect);
  update(3, {2700, 700}, 1.5, 2, kPyramid);
  update(5, {2700, 700}, 1.5, 3, kPyramid);
  update(5, {4500, 4400}, 3.0, 4, kRect);
  update(4, {4500, 4400}, 3.0, 5, kPyramid);
  update(3, {4300, 4300}, -1.2, 6, kRect);
  service.move(3, Rect(3100, 3100, 3700, 3500));
  update(1, {3400, 3300}, 0.3, 7, kPyramid);
  EXPECT_TRUE(service.uninstall(1));
  update(3, {2700, 700}, 2.2, 8, kRect);
  update(1, {1800, 1800}, 0.9, 9, kRect);
  update(1, {1200, 1200}, -2.4, 10, kPyramid);  // re-entry: already spent
  update(2, {1250, 1300}, 0.0, 11, kPyramid);
  update(2, {6300, 6300}, 1.1, 12, kRect);  // the alarm moved away
  EXPECT_EQ(
      service.install(AlarmScope::kPublic, 0, Rect(8000, 200, 8600, 700)),
      4u);
  update(4, {8300, 500}, 0.5, 13, kPyramid);

  const std::vector<std::vector<alarms::AlarmId>> expected_fired = {
      {}, {0}, {1}, {}, {2}, {}, {2}, {3}, {}, {}, {}, {0}, {}, {4}};
  EXPECT_EQ(fired, expected_fired);
  EXPECT_EQ(service.trigger_log().size(), 7u);
  EXPECT_EQ(service.alarm_count(), 4u);
  EXPECT_EQ(digest, 12939522205820048893ull);
}

TEST(ServiceClientLoopTest, RectRegionRoundTrip) {
  SpatialAlarmService service(test_config());
  service.install(alarms::AlarmScope::kPublic, 0, Rect(3000, 900, 3400, 1300));

  ClientMonitor monitor;
  EXPECT_TRUE(monitor.should_report({1000, 1000}));  // no region yet

  const auto update =
      service.process_update(1, {1000, 1000}, 0.0, 0, RegionKind::kRect);
  EXPECT_TRUE(update.fired.empty());
  monitor.receive(update.safe_region_message);
  EXPECT_TRUE(monitor.has_region());

  // Walking inside the cell, short of the alarm: no report needed.
  EXPECT_FALSE(monitor.should_report({1500, 1000}));
  // At the alarm's west edge the region must end: report required.
  EXPECT_TRUE(monitor.should_report({3050, 1000}));
}

TEST(ServiceClientLoopTest, PyramidRegionRoundTrip) {
  auto cfg = test_config();
  cfg.pyramid.height = 4;
  SpatialAlarmService service(cfg);
  service.install(alarms::AlarmScope::kPublic, 0, Rect(900, 900, 1200, 1200));

  ClientMonitor monitor;
  const auto update =
      service.process_update(1, {300, 300}, 0.0, 0, RegionKind::kPyramid);
  monitor.receive(update.safe_region_message);

  EXPECT_FALSE(monitor.should_report({400, 400}));
  EXPECT_TRUE(monitor.should_report({1000, 1000}));  // inside the alarm
  // Outside the base cell (2 km wide): must report.
  EXPECT_TRUE(monitor.should_report({2500, 300}));
  EXPECT_GT(monitor.check_ops(), monitor.checks());  // descents cost extra
}

TEST(ServiceClientLoopTest, SimulatedWalkTriggersExactlyOnce) {
  // March a subscriber straight through an alarm region, reporting only
  // when the monitor says so; the alarm must fire exactly once.
  SpatialAlarmService service(test_config());
  service.install(alarms::AlarmScope::kPublic, 0, Rect(4000, 900, 4400, 1300));

  ClientMonitor monitor;
  std::size_t fired = 0;
  std::size_t reports = 0;
  for (int step = 0; step <= 300; ++step) {
    const Point pos{step * 20.0, 1000.0};  // 0 .. 6000 m east
    if (monitor.should_report(pos)) {
      ++reports;
      const auto update =
          service.process_update(1, pos, 0.0, static_cast<std::uint64_t>(step),
                                 RegionKind::kRect);
      fired += update.fired.size();
      monitor.receive(update.safe_region_message);
    }
  }
  EXPECT_EQ(fired, 1u);
  EXPECT_GT(reports, 1u);
  // Far fewer reports than steps: the safe region did its job.
  EXPECT_LT(reports, 40u);
}

TEST(ServiceClientLoopTest, MalformedMessagesRejected) {
  ClientMonitor monitor;
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(monitor.receive(empty), PreconditionError);
  const auto notice = wire::encode(wire::TriggerNoticeMsg{1, ""});
  EXPECT_THROW(monitor.receive(notice), PreconditionError);
}

}  // namespace
}  // namespace salarm::core
