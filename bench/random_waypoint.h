// Random-waypoint mobility model.
//
// The classic synthetic alternative to road-constrained motion: each
// vehicle picks a uniform waypoint in the region, travels to it in a
// straight line at a per-trip uniform speed, pauses, and repeats. Useful
// to separate which results depend on road-network structure (heading
// persistence along roads is what the paper's weighted perimeter exploits)
// from those that hold for any motion — see abl_mobility_model. Only that
// ablation runs it, so it lives with the bench (salarm_tests compiles it
// too, as a second PositionSource).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mobility/position_source.h"

namespace salarm::mobility {

struct RandomWaypointConfig {
  std::size_t vehicle_count = 1000;
  double tick_seconds = 1.0;
  std::uint64_t seed = 42;
};

class RandomWaypointSource final : public PositionSource {
 public:
  /// Vehicles roam the given region (positive area required).
  RandomWaypointSource(const geo::Rect& region, RandomWaypointConfig config);

  void reset() override;
  void step() override;
  const std::vector<VehicleSample>& samples() const override {
    return samples_;
  }
  std::size_t vehicle_count() const override {
    return config_.vehicle_count;
  }
  double tick_seconds() const override { return config_.tick_seconds; }
  geo::Rect extent() const override { return region_; }

  /// Hard bound on any vehicle's speed (for the safe-period baseline).
  double max_speed_bound() const { return kSpeedHiMps; }

 private:
  /// Per-trip speed drawn uniformly from this range (m/s).
  static constexpr double kSpeedLoMps = 5.0;
  static constexpr double kSpeedHiMps = 25.0;
  /// Pause at each waypoint drawn uniformly from [0, max] seconds.
  static constexpr double kMaxPauseSeconds = 30.0;

  struct Vehicle {
    geo::Point target;
    double speed_mps = 0.0;
    double pause_remaining_s = 0.0;
  };

  void pick_waypoint(std::size_t v);

  geo::Rect region_;
  RandomWaypointConfig config_;
  std::vector<Vehicle> vehicles_;
  std::vector<VehicleSample> samples_;
  std::vector<Rng> rngs_;
};

}  // namespace salarm::mobility
