#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "mobility/trace.h"
#include "mobility/trace_generator.h"
#include "roadnet/network_builder.h"
#include "roadnet/shortest_path.h"

namespace salarm::mobility {
namespace {

roadnet::RoadNetwork test_network(std::uint64_t seed = 2) {
  roadnet::NetworkConfig cfg;
  cfg.width_m = 8000;
  cfg.height_m = 8000;
  Rng rng(seed);
  return roadnet::build_synthetic_network(cfg, rng);
}

/// Two copies of a small map side by side with no road between them, so
/// about half of all destination draws are unreachable and are redrawn.
roadnet::RoadNetwork two_component_network() {
  roadnet::NetworkConfig cfg;
  cfg.width_m = 4000;
  cfg.height_m = 4000;
  Rng rng(5);
  const roadnet::RoadNetwork part = roadnet::build_synthetic_network(cfg, rng);
  roadnet::RoadNetwork net;
  for (const double dx : {0.0, 6000.0}) {
    const auto base = static_cast<roadnet::NodeId>(net.node_count());
    for (roadnet::NodeId n = 0; n < part.node_count(); ++n) {
      net.add_node(part.node(n).pos + geo::Point{dx, 0.0});
    }
    for (roadnet::EdgeId e = 0; e < part.edge_count(); ++e) {
      const roadnet::RoadEdge& edge = part.edge(e);
      net.add_edge(base + edge.a, base + edge.b, edge.speed_mps,
                   edge.road_class);
    }
  }
  return net;
}

TraceConfig small_trace_config() {
  TraceConfig cfg;
  cfg.vehicle_count = 50;
  cfg.tick_seconds = 1.0;
  cfg.seed = 7;
  return cfg;
}

/// salarm::Rng's draws over the standard engine, so the reference below
/// shares no random source with the generator under test, whose Rng holds
/// salarm::Mt19937_64.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  std::size_t index(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }
  double normal(double mean, double sigma) {
    if (sigma == 0.0) return mean;
    return std::normal_distribution<double>(mean, sigma)(engine_);
  }
  StdRng fork() { return StdRng(engine_()); }

 private:
  std::mt19937_64 engine_;
};

/// The serial TraceGenerator as it stood before its vehicle loops were
/// fanned over fixed chunks, preserved verbatim but for its random source,
/// StdRng: one Router, and reset() and step() walk the vehicles in id
/// order. The only addition is the mid_run_trips_ counter. The chunked
/// generator must reproduce it bit for bit.
class SerialReference {
 public:
  SerialReference(const roadnet::RoadNetwork& network, TraceConfig config)
      : network_(network), config_(config), router_(network) {
    reset();
  }

  void reset() {
    StdRng master(config_.seed);
    vehicles_.assign(config_.vehicle_count, Vehicle{});
    samples_.assign(config_.vehicle_count, VehicleSample{});
    vehicle_rngs_.clear();
    vehicle_rngs_.reserve(config_.vehicle_count);
    for (std::size_t i = 0; i < config_.vehicle_count; ++i) {
      vehicle_rngs_.push_back(master.fork());
    }
    for (std::size_t i = 0; i < config_.vehicle_count; ++i) {
      Vehicle& v = vehicles_[i];
      StdRng& rng = vehicle_rngs_[i];
      v.at_node =
          static_cast<roadnet::NodeId>(rng.index(network_.node_count()));
      v.speed_factor = rng.uniform(kSpeedFactorLo, kSpeedFactorHi);
      start_new_trip(v, rng);
      samples_[i].pos = network_.node(v.at_node).pos;
      samples_[i].heading =
          v.route.nodes.size() > 1
              ? geo::heading(leg_end(v) - leg_start(v))
              : 0.0;
      samples_[i].speed_mps = 0.0;
    }
    time_s_ = 0.0;
    tick_ = 0;
  }

  void step() {
    for (VehicleId id = 0; id < vehicles_.size(); ++id) {
      advance_vehicle(id, config_.tick_seconds);
    }
    time_s_ += config_.tick_seconds;
    ++tick_;
  }

  const std::vector<VehicleSample>& samples() const { return samples_; }
  double time_seconds() const { return time_s_; }
  std::size_t tick_index() const { return tick_; }
  std::size_t mid_run_trips() const { return mid_run_trips_; }

 private:
  struct Vehicle {
    roadnet::Route route;
    std::size_t leg = 0;
    double offset_m = 0.0;
    double speed_factor = 1.0;
    double dwell_remaining_s = 0.0;
    roadnet::NodeId at_node = 0;
  };

  void start_new_trip(Vehicle& v, StdRng& rng) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto dest =
          static_cast<roadnet::NodeId>(rng.index(network_.node_count()));
      if (dest == v.at_node) continue;
      roadnet::Route route = router_.route(v.at_node, dest);
      if (route.empty()) continue;
      v.route = std::move(route);
      v.leg = 0;
      v.offset_m = 0.0;
      return;
    }
    SALARM_ASSERT(false, "could not find a destination; network disconnected?");
  }

  geo::Point leg_start(const Vehicle& v) const {
    return network_.node(v.route.nodes[v.leg]).pos;
  }

  geo::Point leg_end(const Vehicle& v) const {
    return network_.node(v.route.nodes[v.leg + 1]).pos;
  }

  double leg_length(const Vehicle& v) const {
    return geo::distance(leg_start(v), leg_end(v));
  }

  double leg_speed(const Vehicle& v) const {
    const roadnet::NodeId a = v.route.nodes[v.leg];
    const roadnet::NodeId b = v.route.nodes[v.leg + 1];
    for (const roadnet::RoadNetwork::Adjacency& adj : network_.neighbors(a)) {
      if (adj.neighbor == b) return network_.edge(adj.edge).speed_mps;
    }
    SALARM_ASSERT(false, "route uses a non-existent edge");
  }

  void advance_vehicle(VehicleId id, double dt) {
    Vehicle& v = vehicles_[id];
    StdRng& rng = vehicle_rngs_[id];
    VehicleSample& sample = samples_[id];

    if (v.dwell_remaining_s > 0.0) {
      const double wait = std::min(v.dwell_remaining_s, dt);
      v.dwell_remaining_s -= wait;
      dt -= wait;
      if (v.dwell_remaining_s > 0.0 || dt == 0.0) {
        sample.pos = network_.node(v.at_node).pos;
        sample.speed_mps = 0.0;
        return;
      }
      ++mid_run_trips_;
      start_new_trip(v, rng);
    }

    const geo::Point before = sample.pos;
    const double noise =
        std::clamp(1.0 + rng.normal(0.0, kSpeedNoiseSigma), 0.1,
                   1.0 + 3.0 * kSpeedNoiseSigma);
    double budget = dt;
    while (budget > 0.0) {
      const double speed = leg_speed(v) * v.speed_factor * noise;
      const double remaining_on_leg = leg_length(v) - v.offset_m;
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
        v.at_node = v.route.nodes.back();
        v.dwell_remaining_s = rng.uniform(0.0, config_.max_dwell_seconds);
        break;
      }
    }

    if (v.leg + 1 >= v.route.nodes.size()) {
      sample.pos = network_.node(v.at_node).pos;
    } else {
      const double len = leg_length(v);
      sample.pos = geo::lerp(leg_start(v), leg_end(v), v.offset_m / len);
    }
    const geo::Point moved = sample.pos - before;
    if (moved.x != 0.0 || moved.y != 0.0) sample.heading = geo::heading(moved);
    sample.speed_mps = geo::norm(moved) / dt;
  }

  const roadnet::RoadNetwork& network_;
  TraceConfig config_;
  roadnet::Router router_;
  std::vector<Vehicle> vehicles_;
  std::vector<VehicleSample> samples_;
  std::vector<StdRng> vehicle_rngs_;
  double time_s_ = 0.0;
  std::size_t tick_ = 0;
  std::size_t mid_run_trips_ = 0;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compares one tick's samples bit for bit.
void expect_same_samples(const std::vector<VehicleSample>& got,
                         const std::vector<VehicleSample>& want,
                         std::size_t tick) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_TRUE(same_bits(got[v].pos.x, want[v].pos.x) &&
                same_bits(got[v].pos.y, want[v].pos.y) &&
                same_bits(got[v].heading, want[v].heading) &&
                same_bits(got[v].speed_mps, want[v].speed_mps))
        << "tick " << tick << " vehicle " << v;
  }
}

/// Steps both sources `ticks` times after a reset and compares every
/// sample bit for bit, plus the tick counter and the clock.
void expect_same_replay(TraceGenerator& gen, SerialReference& ref,
                        std::size_t ticks) {
  for (std::size_t t = 0; t <= ticks; ++t) {
    ASSERT_EQ(gen.tick_index(), ref.tick_index());
    ASSERT_TRUE(same_bits(gen.time_seconds(), ref.time_seconds()));
    expect_same_samples(gen.samples(), ref.samples(), t);
    if (::testing::Test::HasFatalFailure()) return;
    if (t < ticks) {
      gen.step();
      ref.step();
    }
  }
}

/// Returns the number of trips the reference started mid-run.
std::size_t expect_chunked_matches_serial(const roadnet::RoadNetwork& net,
                                          std::size_t vehicles) {
  SCOPED_TRACE(::testing::Message() << "vehicles=" << vehicles);
  constexpr std::size_t kTicks = 300;
  TraceConfig cfg = small_trace_config();
  cfg.vehicle_count = vehicles;
  TraceGenerator gen(net, cfg);
  SerialReference ref(net, cfg);
  // Construction replays once; two explicit reset()s replay twice more.
  expect_same_replay(gen, ref, kTicks);
  for (int replay = 0; replay < 2; ++replay) {
    gen.reset();
    ref.reset();
    expect_same_replay(gen, ref, kTicks);
  }
  return ref.mid_run_trips();
}

/// Replays the trace three times through reset() after the constructor's
/// replay, which is the one that routes the first trips. Returns the number
/// of trips the reference started mid-run.
std::size_t expect_resets_match_serial(const roadnet::RoadNetwork& net,
                                       std::size_t vehicles) {
  SCOPED_TRACE(::testing::Message() << "vehicles=" << vehicles);
  constexpr std::size_t kTicks = 400;
  TraceConfig cfg = small_trace_config();
  cfg.vehicle_count = vehicles;
  TraceGenerator gen(net, cfg);
  SerialReference ref(net, cfg);
  expect_same_replay(gen, ref, kTicks);
  for (int replay = 0; replay < 3; ++replay) {
    SCOPED_TRACE(::testing::Message() << "reset " << replay + 1);
    gen.reset();
    ref.reset();
    expect_same_replay(gen, ref, kTicks);
  }
  return ref.mid_run_trips();
}

/// Drives the tick computed ahead through every way a caller can meet it,
/// against the serial reference.
void expect_prefetched_matches_serial(const roadnet::RoadNetwork& net,
                                      std::size_t vehicles) {
  SCOPED_TRACE(::testing::Message() << "vehicles=" << vehicles);
  constexpr std::size_t kTicks = 120;
  TraceConfig cfg = small_trace_config();
  cfg.vehicle_count = vehicles;
  SerialReference ref(net, cfg);
  TraceGenerator gen(net, cfg);

  // reset() right after construction, with tick 1 already in flight.
  gen.reset();
  expect_same_replay(gen, ref, kTicks);

  // reset() at a mid-run tick, with the next step in flight.
  gen.reset();
  ref.reset();
  expect_same_replay(gen, ref, 37);
  gen.reset();
  ref.reset();
  expect_same_replay(gen, ref, kTicks);

  // A reference taken before step() reads the new tick after it.
  gen.reset();
  ref.reset();
  const std::vector<VehicleSample>& held = gen.samples();
  for (std::size_t t = 1; t <= kTicks; ++t) {
    gen.step();
    ref.step();
    ASSERT_EQ(&held, &gen.samples());
    expect_same_samples(held, ref.samples(), t);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // record() after a reset() matches the streamed ticks.
  gen.reset();
  ref.reset();
  const RecordedTrace trace = gen.record(kTicks);
  ASSERT_EQ(trace.tick_count(), kTicks);
  for (std::size_t t = 0; t < kTicks; ++t) {
    expect_same_samples(trace.tick(t), ref.samples(), t);
    if (::testing::Test::HasFatalFailure()) return;
    ref.step();
  }

  // Destroyed with a tick in flight: the chunk tasks must not outlive it.
  {
    TraceGenerator doomed(net, cfg);
    doomed.step();
  }
}

/// Runs `check` pinned to one CPU, where the generator's pool has no
/// workers and runs every chunk inline, then unpinned.
template <typename Check>
void pinned_then_unpinned(Check check) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first_cpu = 0;
  while (!CPU_ISSET(first_cpu, &saved)) ++first_cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first_cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  {
    SCOPED_TRACE("pinned to one CPU");
    check();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  {
    SCOPED_TRACE("unpinned");
    check();
  }
}

/// Vehicle counts around the 128-vehicle chunk boundary.
const std::vector<std::size_t> kChunkBoundaryCounts = {1, 127, 128, 129,
                                                       513, 1300};

TEST(RecordedTraceTest, AppendAndAccess) {
  RecordedTrace trace(2, 0.5);
  trace.append_tick({{{1, 2}, 0.0, 5.0}, {{3, 4}, 1.0, 6.0}});
  trace.append_tick({{{1, 3}, 0.0, 5.0}, {{3, 5}, 1.0, 6.0}});
  EXPECT_EQ(trace.tick_count(), 2u);
  EXPECT_EQ(trace.vehicle_count(), 2u);
  EXPECT_DOUBLE_EQ(trace.duration_seconds(), 1.0);
  EXPECT_EQ(trace.sample(1, 1).pos, (geo::Point{3, 5}));
  EXPECT_THROW(trace.sample(2, 0), salarm::PreconditionError);
  EXPECT_THROW(trace.sample(0, 2), salarm::PreconditionError);
  EXPECT_THROW(trace.append_tick({{{0, 0}, 0.0, 0.0}}),
               salarm::PreconditionError);
}

TEST(TraceGeneratorTest, RejectsBadConfig) {
  const auto net = test_network();
  TraceConfig cfg = small_trace_config();
  cfg.vehicle_count = 0;
  EXPECT_THROW(TraceGenerator(net, cfg), salarm::PreconditionError);
  cfg = small_trace_config();
  cfg.tick_seconds = 0;
  EXPECT_THROW(TraceGenerator(net, cfg), salarm::PreconditionError);
}

TEST(TraceGeneratorTest, PositionsStayOnTheMap) {
  const auto net = test_network();
  const geo::Rect box = net.bounding_box();
  TraceGenerator gen(net, small_trace_config());
  for (int t = 0; t < 300; ++t) {
    gen.step();
    for (const VehicleSample& s : gen.samples()) {
      EXPECT_TRUE(box.contains(s.pos))
          << "tick " << t << ": (" << s.pos.x << ',' << s.pos.y << ')';
    }
  }
}

TEST(TraceGeneratorTest, SpeedsAreBoundedByNetworkPhysics) {
  const auto net = test_network();
  TraceConfig cfg = small_trace_config();
  TraceGenerator gen(net, cfg);
  // Bound: fastest road * highest vehicle factor * generous noise margin.
  const double bound = net.max_speed_mps() * kSpeedFactorHi * 1.5;
  for (int t = 0; t < 300; ++t) {
    const auto before = gen.samples();
    gen.step();
    const auto& after = gen.samples();
    for (std::size_t v = 0; v < after.size(); ++v) {
      const double moved = geo::distance(before[v].pos, after[v].pos);
      EXPECT_LE(moved, bound * cfg.tick_seconds + 1e-9);
      EXPECT_LE(after[v].speed_mps, bound + 1e-9);
    }
  }
}

TEST(TraceGeneratorTest, VehiclesActuallyMove) {
  const auto net = test_network();
  TraceGenerator gen(net, small_trace_config());
  const auto start = gen.samples();
  for (int t = 0; t < 120; ++t) gen.step();
  const auto& end = gen.samples();
  std::size_t moved = 0;
  for (std::size_t v = 0; v < end.size(); ++v) {
    if (geo::distance(start[v].pos, end[v].pos) > 100.0) ++moved;
  }
  // Nearly all vehicles should have traveled far after two minutes.
  EXPECT_GT(moved, end.size() * 8 / 10);
}

TEST(TraceGeneratorTest, ResetReplaysIdentically) {
  const auto net = test_network();
  TraceGenerator gen(net, small_trace_config());
  std::vector<std::vector<VehicleSample>> first;
  first.push_back(gen.samples());
  for (int t = 0; t < 50; ++t) {
    gen.step();
    first.push_back(gen.samples());
  }
  gen.reset();
  EXPECT_EQ(gen.tick_index(), 0u);
  EXPECT_DOUBLE_EQ(gen.time_seconds(), 0.0);
  for (std::size_t t = 0; t < first.size(); ++t) {
    const auto& replay = gen.samples();
    ASSERT_EQ(replay.size(), first[t].size());
    for (std::size_t v = 0; v < replay.size(); ++v) {
      EXPECT_EQ(replay[v].pos, first[t][v].pos) << "t=" << t << " v=" << v;
      EXPECT_DOUBLE_EQ(replay[v].speed_mps, first[t][v].speed_mps);
    }
    if (t + 1 < first.size()) gen.step();
  }
}

TEST(TraceGeneratorTest, TwoGeneratorsSameSeedAgree) {
  const auto net = test_network();
  TraceGenerator a(net, small_trace_config());
  TraceGenerator b(net, small_trace_config());
  for (int t = 0; t < 30; ++t) {
    a.step();
    b.step();
    for (std::size_t v = 0; v < a.samples().size(); ++v) {
      EXPECT_EQ(a.samples()[v].pos, b.samples()[v].pos);
    }
  }
}

TEST(TraceGeneratorTest, DifferentSeedsDiverge) {
  const auto net = test_network();
  TraceConfig cfg = small_trace_config();
  TraceGenerator a(net, cfg);
  cfg.seed = 8;
  TraceGenerator b(net, cfg);
  a.step();
  b.step();
  std::size_t different = 0;
  for (std::size_t v = 0; v < a.samples().size(); ++v) {
    if (!(a.samples()[v].pos == b.samples()[v].pos)) ++different;
  }
  EXPECT_GT(different, 0u);
}

TEST(TraceGeneratorTest, RecordMatchesStreaming) {
  const auto net = test_network();
  TraceGenerator recording(net, small_trace_config());
  const RecordedTrace trace = recording.record(40);
  EXPECT_EQ(trace.tick_count(), 40u);

  TraceGenerator streaming(net, small_trace_config());
  for (std::size_t t = 0; t < trace.tick_count(); ++t) {
    for (std::size_t v = 0; v < trace.vehicle_count(); ++v) {
      EXPECT_EQ(trace.sample(t, static_cast<VehicleId>(v)).pos,
                streaming.samples()[v].pos);
    }
    if (t + 1 < trace.tick_count()) streaming.step();
  }
}

TEST(TraceGeneratorTest, HeadingTracksMotion) {
  const auto net = test_network();
  TraceGenerator gen(net, small_trace_config());
  for (int t = 0; t < 100; ++t) {
    const auto before = gen.samples();
    gen.step();
    const auto& after = gen.samples();
    for (std::size_t v = 0; v < after.size(); ++v) {
      const geo::Point moved = after[v].pos - before[v].pos;
      if (geo::norm(moved) > 1e-6) {
        EXPECT_NEAR(after[v].heading, geo::heading(moved), 1e-9);
      }
    }
  }
}

TEST(TraceGeneratorTest, DwellPausesVehicles) {
  // With an enormous dwell, vehicles that arrive stay parked.
  const auto net = test_network();
  TraceConfig cfg = small_trace_config();
  cfg.max_dwell_seconds = 1e9;
  TraceGenerator gen(net, cfg);
  std::size_t parked_checks = 0;
  std::vector<geo::Point> parked_pos(cfg.vehicle_count);
  std::vector<double> parked_heading(cfg.vehicle_count);
  std::vector<bool> parked(cfg.vehicle_count, false);
  for (int t = 0; t < 400; ++t) {
    gen.step();
    const auto& s = gen.samples();
    for (std::size_t v = 0; v < s.size(); ++v) {
      if (parked[v]) {
        EXPECT_EQ(s[v].pos, parked_pos[v]);
        // A parked vehicle keeps the heading it arrived with.
        EXPECT_TRUE(same_bits(s[v].heading, parked_heading[v]));
        ++parked_checks;
      } else if (s[v].speed_mps == 0.0 && t > 0) {
        parked[v] = true;
        parked_pos[v] = s[v].pos;
        parked_heading[v] = s[v].heading;
      }
    }
  }
  EXPECT_GT(parked_checks, 0u);  // at least one vehicle arrived and parked
}

TEST(TraceGeneratorTest, ZeroDwellKeepsDriving) {
  // A vehicle that arrives with no dwell starts its next trip on the next
  // tick instead of reading past the end of its finished route.
  const auto net = test_network();
  const geo::Rect box = net.bounding_box();
  TraceConfig cfg = small_trace_config();
  cfg.max_dwell_seconds = 0.0;
  TraceGenerator gen(net, cfg);
  for (int t = 0; t < 2000; ++t) {
    ASSERT_NO_THROW(gen.step()) << "tick " << t;
    for (const VehicleSample& s : gen.samples()) {
      ASSERT_TRUE(box.contains(s.pos))
          << "tick " << t << ": (" << s.pos.x << ',' << s.pos.y << ')';
    }
  }
}

TEST(TraceGeneratorTest, ChunkedStepMatchesSerialReference) {
  const auto net = test_network();
  std::size_t mid_run_trips = 0;
  pinned_then_unpinned([&] {
    for (std::size_t n : kChunkBoundaryCounts) {
      mid_run_trips += expect_chunked_matches_serial(net, n);
    }
  });
  // Trips must end and restart mid-run, so the comparison covers the trip
  // start inside step() as well as the one in reset().
  EXPECT_GT(mid_run_trips, 0u);
}

TEST(TraceGeneratorTest, PrefetchedStepMatchesSerialReference) {
  const auto net = test_network();
  pinned_then_unpinned([&] {
    for (std::size_t n : kChunkBoundaryCounts) {
      expect_prefetched_matches_serial(net, n);
    }
  });
}

TEST(TraceGeneratorTest, ResetReusesFirstRoutes) {
  // On the split map, first trips are found after redraws past unreachable
  // destinations, and many later trips start from another node towards a
  // vehicle's first destination. The default map is the paper-size one.
  const auto split = two_component_network();
  ASSERT_LT(split.largest_component_size(), split.node_count());
  Rng rng(3);
  const auto paper_map =
      roadnet::build_synthetic_network(roadnet::NetworkConfig{}, rng);
  std::size_t split_trips = 0;
  std::size_t paper_trips = 0;
  pinned_then_unpinned([&] {
    split_trips += expect_resets_match_serial(split, 300);
    paper_trips += expect_resets_match_serial(paper_map, 1300);
  });
  EXPECT_GT(split_trips, 0u);
  EXPECT_GT(paper_trips, 0u);
}

}  // namespace
}  // namespace salarm::mobility
