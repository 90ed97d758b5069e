// Pins the workload generators' output streams across commits: the road
// network, the two position sources, the churn timeline and the static
// alarm workload, each under its default parameters. Every figure and
// every counted metric is a function of these streams, so a refactor of a
// generator must leave its digest unchanged.
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "common/rng.h"
#include "dynamics/churn.h"
#include "mobility/random_waypoint.h"
#include "mobility/trace_generator.h"
#include "roadnet/network_builder.h"

namespace salarm {
namespace {

/// 64-bit FNV-1a over the exact bits of the values fed to it.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(geo::Point p) {
    add(p.x);
    add(p.y);
  }
  void add(const geo::Rect& r) {
    add(r.lo());
    add(r.hi());
  }
  void add(const alarms::SpatialAlarm& a) {
    add(std::uint64_t{a.id});
    add(static_cast<std::uint64_t>(a.scope));
    add(std::uint64_t{a.owner});
    add(a.region);
    add(std::uint64_t{a.subscribers.size()});
    for (const alarms::SubscriberId s : a.subscribers) add(std::uint64_t{s});
    add(std::uint64_t{a.message.size()});
    for (const char c : a.message) add(static_cast<std::uint64_t>(c));
  }
  void add(const std::vector<mobility::VehicleSample>& samples) {
    for (const mobility::VehicleSample& s : samples) {
      add(s.pos);
      add(s.heading);
      add(s.speed_mps);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

constexpr int kTicks = 200;

roadnet::RoadNetwork default_network(std::uint64_t seed) {
  Rng rng(seed);
  return roadnet::build_synthetic_network(roadnet::NetworkConfig{}, rng);
}

std::uint64_t network_digest(const roadnet::RoadNetwork& net) {
  Digest digest;
  for (roadnet::NodeId n = 0; n < net.node_count(); ++n) {
    digest.add(net.node(n).pos);
  }
  for (roadnet::EdgeId e = 0; e < net.edge_count(); ++e) {
    const roadnet::RoadEdge& edge = net.edge(e);
    digest.add(std::uint64_t{edge.a});
    digest.add(std::uint64_t{edge.b});
    digest.add(edge.length_m);
    digest.add(edge.speed_mps);
    digest.add(static_cast<std::uint64_t>(edge.road_class));
  }
  return digest.value();
}

std::uint64_t source_digest(mobility::PositionSource& source) {
  Digest digest;
  digest.add(source.samples());
  for (int t = 0; t < kTicks; ++t) {
    source.step();
    digest.add(source.samples());
  }
  return digest.value();
}

TEST(GeneratorPinTest, RoadNetworkDigestsArePinned) {
  const std::pair<std::uint64_t, std::uint64_t> kPinned[] = {
      {1, 0x01232b2484622820ull}, {7919 * 42 + 1, 0x3fa20c885a8657c2ull}};
  for (const auto& [seed, pinned] : kPinned) {
    const std::uint64_t digest = network_digest(default_network(seed));
    EXPECT_EQ(digest, pinned)
        << "seed=" << seed << " digest=0x" << std::hex << digest;
  }
}

TEST(GeneratorPinTest, TraceGeneratorDigestIsPinned) {
  const roadnet::RoadNetwork net = default_network(1);
  mobility::TraceConfig config;
  config.vehicle_count = 200;
  mobility::TraceGenerator generator(net, config);
  const std::uint64_t digest = source_digest(generator);
  EXPECT_EQ(digest, 0xce70d9e99ffac091ull)
      << "digest=0x" << std::hex << digest;
}

TEST(GeneratorPinTest, RandomWaypointDigestIsPinned) {
  mobility::RandomWaypointSource source(
      geo::Rect(0, 0, 32000, 32000), mobility::RandomWaypointConfig{});
  const std::uint64_t digest = source_digest(source);
  EXPECT_EQ(digest, 0x122d1d966b855184ull)
      << "digest=0x" << std::hex << digest;
}

TEST(GeneratorPinTest, AlarmWorkloadDigestIsPinned) {
  Rng rng(3);
  const auto alarms = alarms::generate_alarm_workload(
      alarms::AlarmWorkloadConfig{}, geo::Rect(0, 0, 32000, 32000), rng);
  Digest digest;
  for (const alarms::SpatialAlarm& a : alarms) digest.add(a);
  EXPECT_EQ(digest.value(), 0xf7107b5484e0fb7eull)
      << "digest=0x" << std::hex << digest.value();
}

TEST(GeneratorPinTest, ChurnTimelineDigestIsPinned) {
  const geo::Rect universe(0, 0, 16000, 16000);
  alarms::AlarmWorkloadConfig workload;
  workload.alarm_count = 500;
  workload.subscriber_count = 300;
  Rng rng(4);
  const auto initial =
      alarms::generate_alarm_workload(workload, universe, rng);
  dynamics::ChurnConfig churn;
  churn.subscriber_count = 300;
  const dynamics::AlarmScheduler scheduler(churn, universe, initial, 2000,
                                           5);
  Digest digest;
  for (const dynamics::ChurnEvent& e : scheduler.timeline()) {
    digest.add(e.tick);
    digest.add(static_cast<std::uint64_t>(e.kind));
    digest.add(std::uint64_t{e.id});
    digest.add(e.alarm);
  }
  EXPECT_EQ(digest.value(), 0x9e3c9cd0e650ade9ull)
      << "digest=0x" << std::hex << digest.value();
}

}  // namespace
}  // namespace salarm
