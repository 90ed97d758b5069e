// Experiment — shared workload construction for the benches and the
// integration tests.
//
// Builds the paper's evaluation workload (synthetic ~1000 km² road network,
// vehicle trace, uniform alarm set with a configurable public share, grid
// overlay) and wires it into a Simulation. One Experiment = one workload;
// strategies are run against it via the factory helpers so every run sees
// the identical trace and alarm set. The trace generator and the
// Simulation are built on the first simulation() or enable_*() call, so a
// caller that only needs the network, store, grid and factories never
// routes a vehicle.
//
// Default scale is reduced from the paper's 10,000 vehicles x 1 h to keep
// bench turnaround interactive; environment variables switch scale:
//   SALARM_FULL=1       paper scale (10,000 vehicles, 60 minutes)
//   SALARM_VEHICLES=n   override vehicle count
//   SALARM_MINUTES=m    override duration
//   SALARM_ALARMS=n     override alarm count
//   SALARM_SEED=s       override the master seed
// Counts and the seed must be decimal digits, minutes a non-negative
// number; any other value throws a PreconditionError naming the variable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "alarms/alarm_store.h"
#include "common/rng.h"
#include "dynamics/churn.h"
#include "grid/grid_overlay.h"
#include "mobility/trace_generator.h"
#include "roadnet/network_builder.h"
#include "roadnet/road_network.h"
#include "saferegion/motion_model.h"
#include "saferegion/mwpsr.h"
#include "saferegion/pyramid.h"
#include "sim/simulation.h"

namespace salarm::core {

struct ExperimentConfig {
  /// Universe is a square of this side (km); paper: ~1000 km² total.
  double universe_km = 32.0;
  std::size_t vehicles = 2000;
  double minutes = 15.0;
  double tick_seconds = 1.0;
  std::size_t alarm_count = 10000;
  /// Percent of alarms that are public (paper default 10, swept 1/10/20).
  double public_percent = 10.0;
  /// Grid cell size in km² (paper default/best 2.5).
  double grid_cell_sqkm = 2.5;
  std::uint64_t seed = 42;

  /// Applies the SALARM_* environment overrides to this config.
  ExperimentConfig with_env_overrides() const;

  /// Ticks of a run: the initial positions plus one per tick_seconds over
  /// `minutes`. Throws PreconditionError unless tick_seconds is positive
  /// and finite and the count is non-negative and fits a size_t.
  std::size_t ticks() const;
};

class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  /// Builds the trace generator and the simulation on the first call.
  sim::Simulation& simulation();
  const ExperimentConfig& config() const { return config_; }
  const roadnet::RoadNetwork& network() const { return network_; }
  alarms::AlarmStore& store() { return store_; }
  const grid::GridOverlay& grid() const { return grid_; }

  /// Hard bound on vehicle speed (feeds the SP baseline).
  double max_speed_bound() const;

  /// Churn knobs matching this workload's public share and subscriber id
  /// space; the caller sets the rates.
  dynamics::ChurnConfig churn_config(double installs_per_tick,
                                     double removes_per_tick) const;
  /// Enables alarm churn on the simulation under the experiment's derived
  /// churn seed (independent of the network/trace/alarm streams).
  void enable_churn(const dynamics::ChurnConfig& config);
  /// Routes every subsequent run through a fault-injecting channel
  /// (DESIGN.md §9) under the experiment's derived channel seed
  /// (independent of the network/trace/alarm/churn streams). The all-zero
  /// config restores the perfect pass-through link.
  void enable_channel(const net::ChannelConfig& config);
  /// Arms shard crash-recovery for every subsequent sharded run
  /// (DESIGN.md §10) under the experiment's derived failover seed
  /// (independent of all other streams).
  void enable_failover(const failover::FailoverConfig& config);

  // Strategy factories for Simulation::run. Each call builds a fresh
  // strategy instance bound to the run's client link.
  sim::Simulation::StrategyFactory periodic() const;
  sim::Simulation::StrategyFactory safe_period() const;
  sim::Simulation::StrategyFactory rect(
      saferegion::MotionModel model,
      saferegion::MwpsrOptions options = {}) const;
  sim::Simulation::StrategyFactory bitmap(
      saferegion::PyramidConfig config) const;
  /// Bitmap strategy with the precomputed public-alarm bitmap cache
  /// (paper §4.2).
  sim::Simulation::StrategyFactory bitmap_cached(
      saferegion::PyramidConfig config) const;
  sim::Simulation::StrategyFactory optimal() const;

 private:
  static roadnet::RoadNetwork build_network(const ExperimentConfig& config);
  static mobility::TraceConfig trace_config(const ExperimentConfig& config);

  ExperimentConfig config_;
  roadnet::RoadNetwork network_;
  grid::GridOverlay grid_;
  alarms::AlarmStore store_;
  std::optional<mobility::TraceGenerator> generator_;
  std::optional<sim::Simulation> simulation_;
};

}  // namespace salarm::core
