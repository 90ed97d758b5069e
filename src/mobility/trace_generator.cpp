#include "mobility/trace_generator.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace salarm::mobility {

TraceGenerator::TraceGenerator(const roadnet::RoadNetwork& network,
                               TraceConfig config)
    : network_(network), config_(config) {
  SALARM_REQUIRE(config_.vehicle_count > 0, "need at least one vehicle");
  SALARM_REQUIRE(config_.tick_seconds > 0.0, "tick must be positive");
  SALARM_REQUIRE(config_.max_dwell_seconds >= 0.0, "negative dwell");
  SALARM_REQUIRE(network.node_count() >= 2, "network too small for trips");
  const std::size_t chunks = (config_.vehicle_count + kGrain - 1) / kGrain;
  routers_.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) routers_.emplace_back(network_);
  // Drawn in fork order, as serial master.fork() calls would; each vehicle
  // seeds its own engine in init_vehicle, inside the parallel chunks.
  Rng master(config_.seed);
  vehicle_seeds_.resize(config_.vehicle_count);
  for (std::uint64_t& seed : vehicle_seeds_) seed = master.engine()();
  vehicle_rngs_.assign(config_.vehicle_count, master);
  vehicles_.resize(config_.vehicle_count);
  first_routes_.resize(config_.vehicle_count);
  samples_.resize(config_.vehicle_count);
  next_samples_.resize(config_.vehicle_count);
  reset();  // routes every vehicle's first trip, which later resets reuse
}

TraceGenerator::~TraceGenerator() { discard_prefetch(); }

void TraceGenerator::discard_prefetch() noexcept {
  try {
    pool_.wait(prefetch_);
  } catch (...) {
    // A tick nobody asked for; its error has no caller to reach.
  }
}

void TraceGenerator::prefetch_vehicle(VehicleId id) const {
  const char* v = reinterpret_cast<const char*>(&vehicles_[id]);
  __builtin_prefetch(v);
  __builtin_prefetch(v + 64);
  __builtin_prefetch(vehicle_rngs_[id].engine().index_address());
}

void TraceGenerator::prefetch_draw(VehicleId id) const {
  const Vehicle& v = vehicles_[id];
  __builtin_prefetch(vehicle_rngs_[id].engine().next_word_address());
  __builtin_prefetch(v.route.nodes.data() + v.leg);
}

void TraceGenerator::run_chunk(
    std::size_t c,
    void (TraceGenerator::*per_vehicle)(VehicleId, roadnet::Router&)) {
  const auto begin = static_cast<VehicleId>(c * kGrain);
  const auto end = static_cast<VehicleId>(
      std::min(config_.vehicle_count, (c + 1) * kGrain));
  constexpr std::size_t d = kPrefetchAhead;
  for (VehicleId id = begin; id < end && id < begin + 2 * d; ++id) {
    prefetch_vehicle(id);
  }
  for (VehicleId id = begin; id < end && id < begin + d; ++id) {
    prefetch_draw(id);
  }
  for (VehicleId id = begin; id < end; ++id) {
    if (id + 2 * d < end) prefetch_vehicle(id + 2 * d);
    if (id + d < end) prefetch_draw(id + d);
    (this->*per_vehicle)(id, routers_[c]);
  }
}

void TraceGenerator::reset() {
  discard_prefetch();
  pool_.run(routers_.size(), [this](std::size_t c) {
    run_chunk(c, &TraceGenerator::init_vehicle);
  });
  time_s_ = 0.0;
  tick_ = 0;
  pool_.start(prefetch_, routers_.size(), step_chunk_);
}

void TraceGenerator::init_vehicle(VehicleId id, roadnet::Router& router) {
  Vehicle& v = vehicles_[id];
  Rng& rng = vehicle_rngs_[id];
  rng.engine().seed(vehicle_seeds_[id]);
  v.at_node = static_cast<roadnet::NodeId>(rng.index(network_.node_count()));
  v.speed_factor = rng.uniform(kSpeedFactorLo, kSpeedFactorHi);
  v.dwell_remaining_s = 0.0;
  roadnet::Route& first = first_routes_[id];
  start_new_trip(v, first, rng, router);
  if (first.empty()) first = v.route;  // the first reset
  samples_[id].pos = network_.node(v.at_node).pos;
  samples_[id].heading = geo::heading(v.leg_end - v.leg_start);
  samples_[id].speed_mps = 0.0;
}

void TraceGenerator::start_new_trip(Vehicle& v, const roadnet::Route& first,
                                    Rng& rng, roadnet::Router& router) const {
  // Redraw until a reachable, distinct destination is found. On a connected
  // network the loop ends on the first non-identical draw; the retry bound
  // turns a disconnected-network bug into a loud failure. The finished
  // trip's route is no longer read, so the new one reuses its buffer.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto dest =
        static_cast<roadnet::NodeId>(rng.index(network_.node_count()));
    if (dest == v.at_node) continue;
    if (!first.empty() && first.nodes.front() == v.at_node &&
        first.nodes.back() == dest) {
      v.route = first;  // A* is deterministic: same ends, same route
    } else {
      router.route(v.at_node, dest, v.route);
      if (v.route.empty()) continue;
    }
    v.leg = 0;
    v.offset_m = 0.0;
    enter_leg(v);
    return;
  }
  SALARM_ASSERT(false, "could not find a destination; network disconnected?");
}

void TraceGenerator::enter_leg(Vehicle& v) const {
  const roadnet::NodeId a = v.route.nodes[v.leg];
  const roadnet::NodeId b = v.route.nodes[v.leg + 1];
  v.leg_start = network_.node(a).pos;
  v.leg_end = network_.node(b).pos;
  v.leg_length_m = geo::distance(v.leg_start, v.leg_end);
  for (const roadnet::RoadNetwork::Adjacency& adj : network_.neighbors(a)) {
    if (adj.neighbor == b) {
      v.leg_speed_mps = network_.edge(adj.edge).speed_mps;
      return;
    }
  }
  SALARM_ASSERT(false, "route uses a non-existent edge");
}

void TraceGenerator::advance_vehicle(VehicleId id, roadnet::Router& router) {
  Vehicle& v = vehicles_[id];
  Rng& rng = vehicle_rngs_[id];
  const VehicleSample& now = samples_[id];
  VehicleSample& next = next_samples_[id];
  next.heading = now.heading;  // kept unless the vehicle moves
  double dt = config_.tick_seconds;

  if (v.leg + 1 >= v.route.nodes.size()) {
    // Trip finished: sit out the dwell, then start the next trip.
    const double wait = std::min(v.dwell_remaining_s, dt);
    v.dwell_remaining_s -= wait;
    dt -= wait;
    if (v.dwell_remaining_s > 0.0 || dt == 0.0) {
      next.pos = network_.node(v.at_node).pos;
      next.speed_mps = 0.0;
      return;
    }
    start_new_trip(v, first_routes_[id], rng, router);
  }

  const geo::Point before = now.pos;
  // Noise is clamped to +-3 sigma so max_speed_bound() is a hard bound —
  // the safe-period baseline's correctness depends on it.
  const double noise =
      std::clamp(1.0 + rng.normal(0.0, kSpeedNoiseSigma), 0.1,
                 1.0 + 3.0 * kSpeedNoiseSigma);
  double budget = dt;
  while (budget > 0.0) {
    const double speed = v.leg_speed_mps * v.speed_factor * noise;
    const double remaining_on_leg = v.leg_length_m - v.offset_m;
    const double step = speed * budget;
    if (step < remaining_on_leg) {
      v.offset_m += step;
      budget = 0.0;
      break;
    }
    budget -= remaining_on_leg / speed;
    ++v.leg;
    v.offset_m = 0.0;
    if (v.leg + 1 >= v.route.nodes.size()) {
      // Arrived; dwell, possibly into the next tick.
      v.at_node = v.route.nodes.back();
      v.dwell_remaining_s = rng.uniform(0.0, config_.max_dwell_seconds);
      break;
    }
    enter_leg(v);
  }

  if (v.leg + 1 >= v.route.nodes.size()) {
    next.pos = network_.node(v.at_node).pos;
  } else {
    next.pos = geo::lerp(v.leg_start, v.leg_end, v.offset_m / v.leg_length_m);
  }
  const geo::Point moved = next.pos - before;
  if (moved.x != 0.0 || moved.y != 0.0) next.heading = geo::heading(moved);
  next.speed_mps = geo::norm(moved) / dt;
}

void TraceGenerator::step() {
  pool_.wait(prefetch_);  // rethrows the error of the tick it hands out
  samples_.swap(next_samples_);
  pool_.start(prefetch_, routers_.size(), step_chunk_);
  time_s_ += config_.tick_seconds;
  ++tick_;
}

RecordedTrace TraceGenerator::record(std::size_t ticks) {
  SALARM_REQUIRE(ticks > 0, "cannot record an empty trace");
  RecordedTrace trace(config_.vehicle_count, config_.tick_seconds);
  trace.append_tick(samples_);
  for (std::size_t t = 1; t < ticks; ++t) {
    step();
    trace.append_tick(samples_);
  }
  return trace;
}

}  // namespace salarm::mobility
