#include <limits>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "roadnet/network_builder.h"
#include "roadnet/road_network.h"
#include "roadnet/shortest_path.h"

namespace salarm::roadnet {
namespace {

TEST(RoadNetworkTest, AddNodesAndEdges) {
  RoadNetwork net;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({100, 0});
  const NodeId c = net.add_node({100, 100});
  const EdgeId e1 = net.add_edge(a, b, 10.0, RoadClass::kArterial);
  net.add_edge(b, c, 20.0, RoadClass::kHighway);
  EXPECT_EQ(net.node_count(), 3u);
  EXPECT_EQ(net.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(net.edge(e1).length_m, 100.0);
  EXPECT_DOUBLE_EQ(net.max_speed_mps(), 20.0);
  EXPECT_EQ(net.neighbors(b).size(), 2u);
  EXPECT_EQ(net.neighbors(a).size(), 1u);
  EXPECT_EQ(net.neighbors(a)[0].neighbor, b);
}

TEST(RoadNetworkTest, EdgeValidation) {
  RoadNetwork net;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({1, 0});
  net.add_node({0, 0});  // duplicate position, distinct node
  EXPECT_THROW(net.add_edge(a, a, 10.0, RoadClass::kLocal),
               salarm::PreconditionError);  // self loop
  EXPECT_THROW(net.add_edge(a, 99, 10.0, RoadClass::kLocal),
               salarm::PreconditionError);  // missing endpoint
  EXPECT_THROW(net.add_edge(a, b, 0.0, RoadClass::kLocal),
               salarm::PreconditionError);  // zero speed
  EXPECT_THROW(net.add_edge(a, 2, 10.0, RoadClass::kLocal),
               salarm::PreconditionError);  // zero length
}

TEST(RoadNetworkTest, BoundingBoxAndComponents) {
  RoadNetwork net;
  EXPECT_THROW(net.bounding_box(), salarm::PreconditionError);
  const NodeId a = net.add_node({-5, 2});
  const NodeId b = net.add_node({10, 8});
  net.add_node({3, -7});  // isolated
  net.add_edge(a, b, 5.0, RoadClass::kLocal);
  EXPECT_EQ(net.bounding_box(), geo::Rect(-5, -7, 10, 8));
  EXPECT_EQ(net.largest_component_size(), 2u);
}

TEST(NetworkBuilderTest, RejectsBadConfig) {
  Rng rng(1);
  NetworkConfig cfg;
  cfg.width_m = -1;
  EXPECT_THROW(build_synthetic_network(cfg, rng), salarm::PreconditionError);
  cfg = {};
  cfg.local_drop_probability = 1.0;
  EXPECT_THROW(build_synthetic_network(cfg, rng), salarm::PreconditionError);
}

NetworkConfig small_config() {
  NetworkConfig cfg;
  cfg.width_m = 8000;
  cfg.height_m = 8000;
  return cfg;
}

class NetworkSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetworkSeedTest, SyntheticNetworkIsConnectedAndInBounds) {
  Rng rng(GetParam());
  const NetworkConfig cfg = small_config();
  const RoadNetwork net = build_synthetic_network(cfg, rng);
  EXPECT_EQ(net.largest_component_size(), net.node_count());
  EXPECT_GE(net.node_count(), 81u);  // 9x9 lattice
  const geo::Rect box = net.bounding_box();
  EXPECT_NEAR(box.width(), cfg.width_m, 1e-6);
  EXPECT_NEAR(box.height(), cfg.height_m, 1e-6);
  // All three road classes present with their configured speeds.
  bool saw_highway = false;
  bool saw_arterial = false;
  bool saw_local = false;
  for (EdgeId e = 0; e < net.edge_count(); ++e) {
    const RoadEdge& edge = net.edge(e);
    switch (edge.road_class) {
      case RoadClass::kHighway:
        saw_highway = true;
        EXPECT_DOUBLE_EQ(edge.speed_mps, kHighwaySpeedMps);
        break;
      case RoadClass::kArterial:
        saw_arterial = true;
        EXPECT_DOUBLE_EQ(edge.speed_mps, kArterialSpeedMps);
        break;
      case RoadClass::kLocal:
        saw_local = true;
        EXPECT_DOUBLE_EQ(edge.speed_mps, kLocalSpeedMps);
        break;
    }
  }
  EXPECT_TRUE(saw_highway);
  EXPECT_TRUE(saw_arterial);
  EXPECT_TRUE(saw_local);
}

TEST_P(NetworkSeedTest, DropNeverLeavesDegreeOneNodes) {
  Rng rng(GetParam() * 7 + 3);
  NetworkConfig cfg = small_config();
  cfg.local_drop_probability = 0.3;  // aggressive
  const RoadNetwork net = build_synthetic_network(cfg, rng);
  for (NodeId n = 0; n < net.node_count(); ++n) {
    EXPECT_GE(net.neighbors(n).size(), 2u) << "node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkSeedTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u));

TEST(NetworkBuilderTest, DeterministicForSameSeed) {
  Rng rng1(5);
  Rng rng2(5);
  const RoadNetwork a = build_synthetic_network(small_config(), rng1);
  const RoadNetwork b = build_synthetic_network(small_config(), rng2);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId n = 0; n < a.node_count(); ++n) {
    EXPECT_EQ(a.node(n).pos, b.node(n).pos);
  }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Plain Dijkstra used as the oracle for A* optimality checks.
double dijkstra_time(const RoadNetwork& net, NodeId from, NodeId to) {
  std::vector<double> dist(net.node_count(),
                           std::numeric_limits<double>::infinity());
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> open;
  dist[from] = 0;
  open.push({0, from});
  while (!open.empty()) {
    const auto [d, n] = open.top();
    open.pop();
    if (d > dist[n]) continue;
    for (const auto& adj : net.neighbors(n)) {
      const RoadEdge& e = net.edge(adj.edge);
      const double nd = d + e.length_m / e.speed_mps;
      if (nd < dist[adj.neighbor]) {
        dist[adj.neighbor] = nd;
        open.push({nd, adj.neighbor});
      }
    }
  }
  return dist[to];
}

TEST(RouterTest, TrivialAndUnreachableRoutes) {
  RoadNetwork net;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({100, 0});
  const NodeId c = net.add_node({500, 500});  // disconnected
  net.add_node({600, 600});
  net.add_edge(a, b, 10.0, RoadClass::kLocal);
  Router router(net);
  const Route self = router.route(a, a);
  ASSERT_EQ(self.nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(self.travel_time_s, 0.0);
  EXPECT_TRUE(router.route(a, c).empty());
  EXPECT_THROW(router.route(a, 99), salarm::PreconditionError);
}

TEST(RouterTest, PrefersFasterRoad) {
  // Two paths a->d: direct slow edge (length 200, speed 5 => 40s) vs detour
  // over fast edges (length 300, speed 30 => 10s).
  RoadNetwork net;
  const NodeId a = net.add_node({0, 0});
  const NodeId b = net.add_node({100, 100});
  const NodeId d = net.add_node({200, 0});
  net.add_edge(a, d, 5.0, RoadClass::kLocal);
  net.add_edge(a, b, 30.0, RoadClass::kHighway);
  net.add_edge(b, d, 30.0, RoadClass::kHighway);
  Router router(net);
  const Route r = router.route(a, d);
  ASSERT_EQ(r.nodes.size(), 3u);
  EXPECT_EQ(r.nodes[1], b);
  EXPECT_NEAR(r.travel_time_s, 2 * std::hypot(100, 100) / 30.0, 1e-9);
}

class RouterSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterSeedTest, AStarMatchesDijkstra) {
  Rng rng(GetParam());
  NetworkConfig cfg = small_config();
  const RoadNetwork net = build_synthetic_network(cfg, rng);
  Router router(net);
  for (int q = 0; q < 40; ++q) {
    const auto from = static_cast<NodeId>(rng.index(net.node_count()));
    const auto to = static_cast<NodeId>(rng.index(net.node_count()));
    const Route r = router.route(from, to);
    ASSERT_FALSE(r.empty());
    EXPECT_NEAR(r.travel_time_s, dijkstra_time(net, from, to), 1e-6);
    // Route is a connected node path from->to along existing edges.
    EXPECT_EQ(r.nodes.front(), from);
    EXPECT_EQ(r.nodes.back(), to);
    for (std::size_t i = 0; i + 1 < r.nodes.size(); ++i) {
      bool adjacent = false;
      for (const auto& adj : net.neighbors(r.nodes[i])) {
        adjacent |= adj.neighbor == r.nodes[i + 1];
      }
      EXPECT_TRUE(adjacent) << "leg " << i << " not an edge";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterSeedTest,
                         ::testing::Values(7u, 8u, 9u));

TEST(RouterTest, ReusableAcrossQueries) {
  Rng rng(11);
  const RoadNetwork net = build_synthetic_network(small_config(), rng);
  Router router(net);
  const Route first = router.route(0, static_cast<NodeId>(net.node_count() - 1));
  const Route again = router.route(0, static_cast<NodeId>(net.node_count() - 1));
  EXPECT_EQ(first.nodes, again.nodes);
  EXPECT_DOUBLE_EQ(first.travel_time_s, again.travel_time_s);
}

}  // namespace
}  // namespace salarm::roadnet
