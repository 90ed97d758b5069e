// Parallel ground-truth oracle tests (sim/oracle.h).
//
// The reference below is the serial oracle loop as it stood before the
// probes were fanned over the tick executor, preserved verbatim: one
// process_position per subscriber per tick, in subscriber order. The
// parallel oracle must reproduce it bit-for-bit — every trigger event in
// the same order, and the same R*-tree node-access total — on a static
// workload, under churn, and at vehicle counts that do not fill whole
// 512-subscriber chunks.
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "common/rng.h"
#include "dynamics/churn.h"
#include "mobility/random_waypoint.h"
#include "sim/oracle.h"

namespace salarm {
namespace {

using alarms::TriggerEvent;
using ChurnFn = std::function<void(std::size_t, alarms::AlarmStore&)>;

/// The pre-parallel sim::ground_truth_triggers body, verbatim.
std::vector<TriggerEvent> reference_ground_truth(
    mobility::PositionSource& source, alarms::AlarmStore& store,
    std::size_t ticks, const ChurnFn& apply_churn) {
  store.reset_triggers();
  source.reset();
  std::vector<alarms::TriggerEvent> events;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t > 0) {
      source.step();
      if (apply_churn) apply_churn(t, store);
    }
    const auto& samples = source.samples();
    for (mobility::VehicleId v = 0; v < samples.size(); ++v) {
      (void)store.process_position(v, samples[v].pos, t, &events);
    }
  }
  store.reset_triggers();
  return events;
}

struct OracleCase {
  std::size_t vehicles;
  bool churn;
  /// A heavily overlapping public workload fires far more pairs per chunk
  /// in one tick than the pre-sized buffers hold.
  bool dense;
};

constexpr std::size_t kTicks = 60;
const geo::Rect kUniverse(0.0, 0.0, 6000.0, 6000.0);

std::vector<alarms::SpatialAlarm> workload(const OracleCase& c) {
  alarms::AlarmWorkloadConfig cfg;
  cfg.alarm_count = 2000;
  cfg.subscriber_count = c.vehicles;
  if (c.dense) {
    cfg.public_fraction = 0.6;
    cfg.region_side_lo = 300.0;
    cfg.region_side_hi = 1200.0;
  }
  Rng rng(777);
  return alarms::generate_alarm_workload(cfg, kUniverse, rng);
}

/// Runs `oracle` on a fresh store and source; returns the events and the
/// store's node-access total afterwards.
std::pair<std::vector<TriggerEvent>, std::uint64_t> run_oracle(
    const OracleCase& c,
    const std::function<std::vector<TriggerEvent>(
        mobility::PositionSource&, alarms::AlarmStore&, const ChurnFn&)>&
        oracle) {
  mobility::RandomWaypointConfig motion;
  motion.vehicle_count = c.vehicles;
  motion.seed = 4242;
  mobility::RandomWaypointSource source(kUniverse, motion);
  alarms::AlarmStore store;
  const std::vector<alarms::SpatialAlarm> initial = workload(c);
  store.install_bulk(initial);

  std::optional<dynamics::AlarmScheduler> scheduler;
  ChurnFn apply_churn;
  if (c.churn) {
    dynamics::ChurnConfig churn;
    churn.installs_per_tick = 4.0;
    churn.removes_per_tick = 3.0;
    churn.subscriber_count = c.vehicles;
    scheduler.emplace(churn, kUniverse, initial, kTicks, /*seed=*/97);
    apply_churn = [&scheduler](std::size_t t, alarms::AlarmStore& s) {
      scheduler->for_each_due(
          static_cast<std::uint64_t>(t), [&s](const dynamics::ChurnEvent& e) {
            if (e.kind == dynamics::ChurnEvent::Kind::kInstall) {
              s.install(e.alarm);
            } else {
              (void)s.uninstall(e.id);
            }
          });
    };
  }
  store.reset_index_node_accesses();
  auto events = oracle(source, store, apply_churn);
  return {std::move(events), store.index_node_accesses()};
}

void expect_parallel_matches_serial(const OracleCase& c) {
  SCOPED_TRACE(::testing::Message() << "vehicles=" << c.vehicles
                                    << " churn=" << c.churn
                                    << " dense=" << c.dense);
  const auto [expected, expected_accesses] = run_oracle(
      c, [](mobility::PositionSource& source, alarms::AlarmStore& store,
            const ChurnFn& churn) {
        return reference_ground_truth(source, store, kTicks, churn);
      });
  const auto [actual, actual_accesses] = run_oracle(
      c, [](mobility::PositionSource& source, alarms::AlarmStore& store,
            const ChurnFn& churn) {
        return churn ? sim::ground_truth_triggers(source, store, kTicks, churn)
                     : sim::ground_truth_triggers(source, store, kTicks);
      });
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(actual_accesses, expected_accesses);
}

TEST(OracleTest, ParallelMatchesSerialReference) {
  // Static workload over whole chunks.
  expect_parallel_matches_serial({.vehicles = 1024, .churn = false,
                                  .dense = false});
  // Churn: installs and removals between the ticks' probe phases.
  expect_parallel_matches_serial({.vehicles = 1024, .churn = true,
                                  .dense = false});
  // A partial last chunk, with more fires per chunk than the buffers hold.
  expect_parallel_matches_serial({.vehicles = 1300, .churn = true,
                                  .dense = true});
  // Fewer subscribers than one chunk: a single task, run inline.
  expect_parallel_matches_serial({.vehicles = 200, .churn = false,
                                  .dense = false});
}

}  // namespace
}  // namespace salarm
