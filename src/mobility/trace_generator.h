// Trip-based vehicle trace generator.
//
// Each vehicle performs successive trips between uniformly drawn network
// nodes along time-optimal routes, moving at the road-class speed scaled by
// a per-vehicle factor, with small per-tick speed noise. The generator is
// fully deterministic in (network, config): reset() replays the identical
// trace, which is how the simulator runs every processing strategy against
// the same motion pattern, as the paper's methodology requires.
//
// reset() and step() fan fixed chunks of vehicles over the shared worker
// pool; calls still come from one thread. Each vehicle owns its Rng and
// each chunk its Router, and the chunking is a constant, so the output is
// independent of the core count.
//
// Every reset() replays the same first trips, so only the constructor's
// reset routes them, and each vehicle keeps its first route. Later resets
// recompute everything else: each vehicle re-seeds its Rng from a seed
// drawn once at construction, and redraws its start node, speed factor
// and destinations. A destination draw whose (start, destination) pair
// matches the kept route's ends takes that route instead of running A*;
// any other draw is routed, so the sample stream is the same as if every
// trip were routed. The kept routes cost one route per vehicle. reset()
// frees no vehicle storage, each vehicle's route buffer is reused by
// every trip, and a warm generator allocates nothing per step or reset.
//
// The pool computes one tick ahead, in its background lane (on workers no
// critical batch needs): while the caller works on tick t in samples(), it
// writes tick t+1 into a back buffer; step() waits for that batch, swaps
// the two buffers and starts tick t+2. The swap keeps samples() the same
// vector object, so a reference to it stays valid and reads the new tick
// after step(). A batch reads only samples() and writes only the back
// buffer and the vehicles' private state, so the caller may read
// samples() at any time between calls. An exception thrown while
// computing a tick surfaces from the step() that returns that tick;
// reset() and the destructor drop the error of a tick nobody asked for.
// Under a one-CPU pin the pool has no workers, and step() computes the
// tick itself, as a serial loop would.
//
// A vehicle's step is little arithmetic around two dependent cache misses:
// its engine's index, then the state word that index selects (each engine
// is 2.5 KB, 10 MB at 4,000 vehicles). So each chunk's loop overlaps the
// misses of several vehicles, at two distances ahead of the one it steps,
// both cut at the chunk's end. At 2 * kPrefetchAhead it prefetches the
// Vehicle and the engine's index line; at kPrefetchAhead, by which time
// those lines have arrived, it reads the index and prefetches the state
// word and the current route node. The Vehicle record holds only what a
// step touches, two cache lines; each vehicle's first route, read only
// when a trip starts, lives apart in first_routes_. Prefetches change no
// value, so the trace is the same with or without them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel_executor.h"
#include "common/rng.h"
#include "mobility/position_source.h"
#include "mobility/trace.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"

namespace salarm::mobility {

/// Per-vehicle speed factor drawn uniformly from this range.
inline constexpr double kSpeedFactorLo = 0.8;
inline constexpr double kSpeedFactorHi = 1.2;
/// Per-tick multiplicative speed noise (standard deviation). Clamped to
/// +-3 sigma so that max_speed_bound() below is hard.
inline constexpr double kSpeedNoiseSigma = 0.05;

/// Hard bound on any generated vehicle's speed, given the network's fastest
/// road: the worst-case velocity assumption of the safe-period baseline [3].
inline double max_speed_bound(double network_max_speed_mps) {
  return network_max_speed_mps * kSpeedFactorHi *
         (1.0 + 3.0 * kSpeedNoiseSigma);
}

struct TraceConfig {
  std::size_t vehicle_count = 1000;
  double tick_seconds = 1.0;
  std::uint64_t seed = 42;
  /// Dwell time at a trip destination before the next trip starts, drawn
  /// uniformly from [0, max].
  double max_dwell_seconds = 30.0;
};

/// Streams VehicleSamples tick by tick.
class TraceGenerator final : public PositionSource {
 public:
  /// The network must outlive the generator.
  TraceGenerator(const roadnet::RoadNetwork& network, TraceConfig config);

  /// Waits for the tick in flight.
  ~TraceGenerator() override;

  // The tick in flight is a batch over this object's vectors, whose body,
  // step_chunk_, holds `this`.
  TraceGenerator(const TraceGenerator&) = delete;
  TraceGenerator& operator=(const TraceGenerator&) = delete;

  /// Rewinds to tick 0; the subsequent sample stream is identical to the
  /// one produced after construction.
  void reset() override;

  /// Advances all vehicles by one tick: waits for the tick computed ahead,
  /// publishes it in samples() and starts computing the next.
  void step() override;

  /// Samples after the most recent step() (or the initial positions before
  /// any step). Indexed by VehicleId.
  const std::vector<VehicleSample>& samples() const override {
    return samples_;
  }

  std::size_t vehicle_count() const override {
    return config_.vehicle_count;
  }
  double tick_seconds() const override { return config_.tick_seconds; }
  geo::Rect extent() const override { return network_.bounding_box(); }

  double time_seconds() const { return time_s_; }
  std::size_t tick_index() const { return tick_; }
  const TraceConfig& config() const { return config_; }
  const roadnet::RoadNetwork& network() const { return network_; }

  /// Materializes `ticks` ticks (including the initial positions as tick 0)
  /// into a RecordedTrace, leaving this generator positioned at the end.
  RecordedTrace record(std::size_t ticks);

 private:
  /// Vehicles per task: a constant, so the chunking never depends on the
  /// thread count, and small, so a worker soon leaves it for critical work.
  static constexpr std::size_t kGrain = 128;

  /// Prefetch distance, in vehicles, of the per-vehicle loop (see the
  /// header comment). Pinned to one CPU, distances 2 to 8 all read within
  /// noise of each other, at 4,000 and 20,000 vehicles.
  static constexpr std::size_t kPrefetchAhead = 4;

  /// What a step reads and writes: exactly two cache lines. The first
  /// route, read only when a trip starts, lives in first_routes_.
  struct alignas(64) Vehicle {
    roadnet::Route route;        ///< current trip
    std::size_t leg = 0;         ///< index into route.nodes of the leg start
    double offset_m = 0.0;       ///< distance traveled along the current leg
    double speed_factor = 1.0;
    double dwell_remaining_s = 0.0;
    roadnet::NodeId at_node = 0; ///< route destination when idle
    // The current leg, cached by enter_leg().
    geo::Point leg_start;
    geo::Point leg_end;
    double leg_length_m = 0.0;
    double leg_speed_mps = 0.0;  ///< the leg's edge speed limit
  };
  static_assert(sizeof(Vehicle) == 2 * 64);

  void start_new_trip(Vehicle& v, const roadnet::Route& first, Rng& rng,
                      roadnet::Router& router) const;
  void enter_leg(Vehicle& v) const;
  void init_vehicle(VehicleId id, roadnet::Router& router);
  /// Writes vehicle `id`'s next tick into next_samples_ from its current
  /// one in samples_.
  void advance_vehicle(VehicleId id, roadnet::Router& router);
  /// Prefetches the lines vehicle `id`'s draw depends on: its Vehicle and
  /// its engine's index.
  void prefetch_vehicle(VehicleId id) const;
  /// Reads vehicle `id`'s engine index and prefetches the state word it
  /// selects, and the vehicle's current route node.
  void prefetch_draw(VehicleId id) const;
  /// Waits for the tick in flight and drops its error.
  void discard_prefetch() noexcept;
  /// Runs `per_vehicle` over chunk `c`'s vehicles: one pool task.
  void run_chunk(std::size_t c,
                 void (TraceGenerator::*per_vehicle)(VehicleId,
                                                     roadnet::Router&));

  const roadnet::RoadNetwork& network_;
  TraceConfig config_;
  std::vector<roadnet::Router> routers_;  ///< one per chunk
  std::vector<Vehicle> vehicles_;
  std::vector<roadnet::Route> first_routes_;  ///< filled by the first reset
  std::vector<VehicleSample> samples_;       ///< tick_, as published
  std::vector<VehicleSample> next_samples_;  ///< tick_ + 1, in flight
  std::vector<std::uint64_t> vehicle_seeds_;  ///< drawn once, in fork order
  std::vector<Rng> vehicle_rngs_;
  ParallelTickExecutor& pool_ = ParallelTickExecutor::shared();
  ParallelTickExecutor::Batch prefetch_;  ///< tick_ + 1
  /// The body of prefetch_: a member, because the workers call it after
  /// start() returns, until the batch is waited.
  struct StepChunk {
    TraceGenerator* generator;
    void operator()(std::size_t c) const {
      generator->run_chunk(c, &TraceGenerator::advance_vehicle);
    }
  } step_chunk_{this};
  double time_s_ = 0.0;
  std::size_t tick_ = 0;
};

}  // namespace salarm::mobility
