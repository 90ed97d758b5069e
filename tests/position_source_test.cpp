// Tests for the PositionSource implementations beyond the road-network
// generator: the random-waypoint model and recorded-trace replay —
// including driving a full metered simulation from a recorded trace.
#include <gtest/gtest.h>

#include "bench/random_waypoint.h"
#include "core/experiment.h"
#include "mobility/position_source.h"
#include "mobility/trace_generator.h"
#include "roadnet/network_builder.h"
#include "strategies/rect_region_strategy.h"

namespace salarm::mobility {
namespace {

using geo::Point;
using geo::Rect;

const Rect kRegion(0, 0, 5000, 5000);

RandomWaypointConfig waypoint_config() {
  RandomWaypointConfig cfg;
  cfg.vehicle_count = 40;
  cfg.seed = 9;
  return cfg;
}

TEST(RandomWaypointTest, RejectsBadConfig) {
  RandomWaypointConfig cfg = waypoint_config();
  cfg.vehicle_count = 0;
  EXPECT_THROW(RandomWaypointSource(kRegion, cfg),
               salarm::PreconditionError);
  EXPECT_THROW(RandomWaypointSource(Rect(0, 0, 0, 10), waypoint_config()),
               salarm::PreconditionError);
}

TEST(RandomWaypointTest, StaysInRegionAndRespectsSpeedBound) {
  RandomWaypointSource source(kRegion, waypoint_config());
  auto previous = source.samples();
  for (int t = 0; t < 500; ++t) {
    source.step();
    const auto& now = source.samples();
    for (std::size_t v = 0; v < now.size(); ++v) {
      EXPECT_TRUE(kRegion.contains(now[v].pos));
      EXPECT_LE(geo::distance(previous[v].pos, now[v].pos),
                source.max_speed_bound() * source.tick_seconds() + 1e-9);
    }
    previous = now;
  }
}

TEST(RandomWaypointTest, ResetReplaysIdentically) {
  RandomWaypointSource source(kRegion, waypoint_config());
  std::vector<std::vector<VehicleSample>> first;
  first.push_back(source.samples());
  for (int t = 0; t < 60; ++t) {
    source.step();
    first.push_back(source.samples());
  }
  source.reset();
  for (std::size_t t = 0; t < first.size(); ++t) {
    for (std::size_t v = 0; v < first[t].size(); ++v) {
      EXPECT_EQ(source.samples()[v].pos, first[t][v].pos);
    }
    if (t + 1 < first.size()) source.step();
  }
}

TEST(RandomWaypointTest, VehiclesMakeProgress) {
  RandomWaypointSource source(kRegion, waypoint_config());
  const auto start = source.samples();
  for (int t = 0; t < 300; ++t) source.step();
  std::size_t moved = 0;
  for (std::size_t v = 0; v < start.size(); ++v) {
    if (geo::distance(start[v].pos, source.samples()[v].pos) > 200.0) {
      ++moved;
    }
  }
  EXPECT_GT(moved, start.size() / 2);
}

TEST(RecordedTraceSourceTest, ReplaysTraceExactly) {
  roadnet::NetworkConfig net_cfg;
  net_cfg.width_m = 4000;
  net_cfg.height_m = 4000;
  Rng rng(2);
  const auto network = roadnet::build_synthetic_network(net_cfg, rng);
  TraceConfig cfg;
  cfg.vehicle_count = 10;
  cfg.seed = 4;
  TraceGenerator gen(network, cfg);
  const RecordedTrace trace = gen.record(30);

  RecordedTraceSource source(trace);
  EXPECT_EQ(source.vehicle_count(), 10u);
  EXPECT_EQ(source.tick_count(), 30u);
  for (std::size_t t = 0; t < trace.tick_count(); ++t) {
    for (VehicleId v = 0; v < trace.vehicle_count(); ++v) {
      EXPECT_EQ(source.samples()[v].pos, trace.sample(t, v).pos);
    }
    if (t + 1 < trace.tick_count()) source.step();
  }
  EXPECT_THROW(source.step(), salarm::PreconditionError);
  source.reset();
  EXPECT_EQ(source.tick_index(), 0u);
  // Extent covers every sample.
  for (std::size_t t = 0; t < trace.tick_count(); ++t) {
    for (VehicleId v = 0; v < trace.vehicle_count(); ++v) {
      EXPECT_TRUE(source.extent().contains(trace.sample(t, v).pos));
    }
  }
}

TEST(RecordedTraceSourceTest, DrivesAFullSimulation) {
  // A recorded trace (the path imported real-world traces take) must be a
  // drop-in workload for the metered simulator, with 100% accuracy.
  roadnet::NetworkConfig net_cfg;
  net_cfg.width_m = 6000;
  net_cfg.height_m = 6000;
  Rng rng(12);
  const auto network = roadnet::build_synthetic_network(net_cfg, rng);
  TraceConfig cfg;
  cfg.vehicle_count = 50;
  cfg.seed = 21;
  TraceGenerator gen(network, cfg);
  const RecordedTrace trace = gen.record(120);
  RecordedTraceSource source(trace);

  alarms::AlarmStore store;
  alarms::AlarmWorkloadConfig workload;
  workload.alarm_count = 300;
  workload.subscriber_count = 50;
  Rng arng(8);
  const geo::Rect universe = network.bounding_box();
  store.install_bulk(
      alarms::generate_alarm_workload(workload, universe, arng));
  grid::GridOverlay grid(universe, 4, 4);

  sim::Simulation simulation(source, store, grid, trace.tick_count());
  const auto run = simulation.run([&](net::ClientLink& link) {
    return std::make_unique<strategies::RectRegionStrategy>(
        link, saferegion::MotionModel(1.0, 32));
  });
  EXPECT_EQ(run.accuracy.missed, 0u);
  EXPECT_EQ(run.accuracy.late, 0u);
  EXPECT_GT(run.accuracy.expected, 0u);
  EXPECT_LT(run.metrics.uplink_messages,
            static_cast<std::uint64_t>(50 * trace.tick_count()));
}

}  // namespace
}  // namespace salarm::mobility
