#include "random_waypoint.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace salarm::mobility {

RandomWaypointSource::RandomWaypointSource(const geo::Rect& region,
                                           RandomWaypointConfig config)
    : region_(region), config_(config) {
  SALARM_REQUIRE(region.area() > 0.0, "region must have positive area");
  SALARM_REQUIRE(config.vehicle_count > 0, "need at least one vehicle");
  SALARM_REQUIRE(config.tick_seconds > 0.0, "tick must be positive");
  reset();
}

void RandomWaypointSource::pick_waypoint(std::size_t v) {
  Rng& rng = rngs_[v];
  vehicles_[v].target = {
      rng.uniform(region_.lo().x, region_.hi().x),
      rng.uniform(region_.lo().y, region_.hi().y)};
  vehicles_[v].speed_mps = rng.uniform(kSpeedLoMps, kSpeedHiMps);
}

void RandomWaypointSource::reset() {
  Rng master(config_.seed);
  rngs_.clear();
  rngs_.reserve(config_.vehicle_count);
  for (std::size_t v = 0; v < config_.vehicle_count; ++v) {
    rngs_.push_back(master.fork());
  }
  vehicles_.assign(config_.vehicle_count, Vehicle{});
  samples_.assign(config_.vehicle_count, VehicleSample{});
  for (std::size_t v = 0; v < config_.vehicle_count; ++v) {
    samples_[v].pos = {rngs_[v].uniform(region_.lo().x, region_.hi().x),
                       rngs_[v].uniform(region_.lo().y, region_.hi().y)};
    pick_waypoint(v);
    samples_[v].heading =
        geo::heading(vehicles_[v].target - samples_[v].pos);
  }
}

void RandomWaypointSource::step() {
  for (std::size_t v = 0; v < config_.vehicle_count; ++v) {
    Vehicle& vehicle = vehicles_[v];
    VehicleSample& sample = samples_[v];
    double dt = config_.tick_seconds;
    const geo::Point before = sample.pos;

    while (dt > 0.0) {
      if (vehicle.pause_remaining_s > 0.0) {
        const double wait = std::min(vehicle.pause_remaining_s, dt);
        vehicle.pause_remaining_s -= wait;
        dt -= wait;
        continue;
      }
      const double to_target = geo::distance(sample.pos, vehicle.target);
      const double reach = vehicle.speed_mps * dt;
      if (reach < to_target) {
        sample.pos = geo::lerp(sample.pos, vehicle.target,
                               reach / to_target);
        dt = 0.0;
        break;
      }
      // Arrive, pause, and pick the next trip.
      sample.pos = vehicle.target;
      dt -= to_target / vehicle.speed_mps;
      vehicle.pause_remaining_s = rngs_[v].uniform(0.0, kMaxPauseSeconds);
      pick_waypoint(v);
    }

    const geo::Point moved = sample.pos - before;
    if (moved.x != 0.0 || moved.y != 0.0) {
      sample.heading = geo::heading(moved);
    }
    sample.speed_mps = geo::norm(moved) / config_.tick_seconds;
  }
}

}  // namespace salarm::mobility
