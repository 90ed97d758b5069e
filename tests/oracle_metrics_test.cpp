#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "sim/metrics.h"
#include "sim/oracle.h"

namespace salarm::sim {
namespace {

using alarms::TriggerEvent;

TEST(CompareTriggersTest, EmptyIsPerfect) {
  const auto report = compare_triggers({}, {});
  EXPECT_TRUE(report.perfect());
  EXPECT_EQ(report.expected, 0u);
  EXPECT_EQ(report.observed, 0u);
}

TEST(CompareTriggersTest, ExactMatchIsPerfect) {
  const std::vector<TriggerEvent> events{{1, 2, 10}, {3, 4, 20}};
  const auto report = compare_triggers(events, events);
  EXPECT_TRUE(report.perfect());
  EXPECT_EQ(report.expected, 2u);
  EXPECT_EQ(report.observed, 2u);
}

TEST(CompareTriggersTest, DetectsMissed) {
  const std::vector<TriggerEvent> expected{{1, 2, 10}, {3, 4, 20}};
  const std::vector<TriggerEvent> observed{{1, 2, 10}};
  const auto report = compare_triggers(expected, observed);
  EXPECT_FALSE(report.perfect());
  EXPECT_EQ(report.missed, 1u);
  EXPECT_EQ(report.spurious, 0u);
  EXPECT_EQ(report.late, 0u);
}

TEST(CompareTriggersTest, DetectsSpurious) {
  const std::vector<TriggerEvent> expected{{1, 2, 10}};
  const std::vector<TriggerEvent> observed{{1, 2, 10}, {9, 9, 5}};
  const auto report = compare_triggers(expected, observed);
  EXPECT_EQ(report.spurious, 1u);
  EXPECT_EQ(report.missed, 0u);
}

TEST(CompareTriggersTest, DetectsDuplicateFire) {
  // Triggers are one-shot per (alarm, subscriber): a strategy that fires a
  // pair twice is wrong even though the first fire matches the oracle.
  const std::vector<TriggerEvent> expected{{1, 2, 10}, {3, 4, 20}};
  const std::vector<TriggerEvent> observed{{1, 2, 10}, {3, 4, 20}, {1, 2, 15}};
  const auto report = compare_triggers(expected, observed);
  EXPECT_FALSE(report.perfect());
  EXPECT_EQ(report.spurious, 1u);
  EXPECT_EQ(report.missed, 0u);
  EXPECT_EQ(report.late, 0u);
}

TEST(CompareTriggersTest, DetectsLate) {
  const std::vector<TriggerEvent> expected{{1, 2, 10}};
  const std::vector<TriggerEvent> observed{{1, 2, 12}};
  const auto report = compare_triggers(expected, observed);
  EXPECT_EQ(report.late, 1u);
  EXPECT_FALSE(report.perfect());
}

TEST(CompareTriggersTest, EarlyIsNotLate) {
  // An observation earlier than the oracle would indicate an oracle bug,
  // not lateness; it is not counted as late (and not as spurious either —
  // the pair exists in both sets).
  const std::vector<TriggerEvent> expected{{1, 2, 10}};
  const std::vector<TriggerEvent> observed{{1, 2, 8}};
  const auto report = compare_triggers(expected, observed);
  EXPECT_EQ(report.late, 0u);
  EXPECT_EQ(report.missed, 0u);
  EXPECT_EQ(report.spurious, 0u);
}

TEST(MetricsTest, MergeAddsAllCounters) {
  Metrics a;
  a.uplink_messages = 10;
  a.client_check_ops = 5;
  a.server_alarm_ops = 7;
  a.region_payload_bytes.add(100.0);
  Metrics b;
  b.uplink_messages = 3;
  b.downstream_region_bytes = 50;
  b.triggers = 2;
  b.region_payload_bytes.add(200.0);
  a.merge(b);
  EXPECT_EQ(a.uplink_messages, 13u);
  EXPECT_EQ(a.downstream_region_bytes, 50u);
  EXPECT_EQ(a.client_check_ops, 5u);
  EXPECT_EQ(a.triggers, 2u);
  EXPECT_EQ(a.region_payload_bytes.count(), 2u);
  EXPECT_DOUBLE_EQ(a.region_payload_bytes.mean(), 150.0);
}

TEST(CostModelTest, ClientEnergyIsContainmentOnly) {
  const CostModel cost;
  Metrics m;
  m.client_check_ops = 1000;
  m.uplink_messages = 50;
  EXPECT_DOUBLE_EQ(cost.client_energy_mwh(m),
                   1000 * cost.check_mwh_per_op);
  // Radio energy covers the transmissions instead.
  EXPECT_DOUBLE_EQ(cost.client_radio_mwh(m),
                   50 * cost.tx_mwh_per_message);
}

TEST(CostModelTest, BandwidthExcludesNotices) {
  const CostModel cost;
  Metrics m;
  m.downstream_region_bytes = 1'000'000;  // 8 Mbit
  m.downstream_notice_bytes = 999'999'999;
  EXPECT_DOUBLE_EQ(cost.downstream_mbps(m, 8.0), 1.0);
}

TEST(CostModelTest, ServerMinutesSplitAndAdd) {
  const CostModel cost;
  Metrics m;
  m.server_alarm_ops = 600'000'000;   // 60 s at 0.1 us/op
  m.server_region_ops = 1'200'000'000;
  EXPECT_DOUBLE_EQ(cost.server_alarm_minutes(m), 1.0);
  EXPECT_DOUBLE_EQ(cost.server_region_minutes(m), 2.0);
  EXPECT_DOUBLE_EQ(cost.server_total_minutes(m), 3.0);
}

}  // namespace
}  // namespace salarm::sim
