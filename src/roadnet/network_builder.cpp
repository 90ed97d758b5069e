#include "roadnet/network_builder.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace salarm::roadnet {

namespace {

struct Lattice {
  int cols = 0;
  int rows = 0;
  std::vector<NodeId> ids;

  NodeId at(int c, int r) const {
    return ids[static_cast<std::size_t>(r) * cols + c];
  }
};

RoadClass line_class(int line_index) {
  if (line_index % kHighwayEvery == 0) return RoadClass::kHighway;
  if (line_index % kArterialEvery == 0) return RoadClass::kArterial;
  return RoadClass::kLocal;
}

double class_speed(RoadClass c) {
  switch (c) {
    case RoadClass::kHighway:
      return kHighwaySpeedMps;
    case RoadClass::kArterial:
      return kArterialSpeedMps;
    case RoadClass::kLocal:
      return kLocalSpeedMps;
  }
  SALARM_ASSERT(false, "unknown road class");
}

}  // namespace

RoadNetwork build_synthetic_network(const NetworkConfig& cfg, Rng& rng) {
  SALARM_REQUIRE(
      kStreetSpacingM <= cfg.width_m && kStreetSpacingM <= cfg.height_m,
      "extent below the street spacing");
  SALARM_REQUIRE(
      cfg.local_drop_probability >= 0 && cfg.local_drop_probability < 1,
      "drop probability must be in [0, 1)");

  RoadNetwork net;
  Lattice lattice;
  lattice.cols =
      static_cast<int>(std::floor(cfg.width_m / kStreetSpacingM)) + 1;
  lattice.rows =
      static_cast<int>(std::floor(cfg.height_m / kStreetSpacingM)) + 1;

  // Nodes: jittered lattice positions. Border nodes stay on the border so
  // the bounding box is exactly the configured extent.
  const double jitter = kJitterFraction * kStreetSpacingM;
  for (int r = 0; r < lattice.rows; ++r) {
    for (int c = 0; c < lattice.cols; ++c) {
      const bool border_col = c == 0 || c == lattice.cols - 1;
      const bool border_row = r == 0 || r == lattice.rows - 1;
      const double base_x =
          c == lattice.cols - 1 ? cfg.width_m : c * kStreetSpacingM;
      const double base_y =
          r == lattice.rows - 1 ? cfg.height_m : r * kStreetSpacingM;
      const double jx = border_col ? 0.0 : rng.uniform(-jitter, jitter);
      const double jy = border_row ? 0.0 : rng.uniform(-jitter, jitter);
      lattice.ids.push_back(net.add_node({base_x + jx, base_y + jy}));
    }
  }

  // Edges: horizontal segments carry the class of their row line, vertical
  // segments the class of their column line. Local segments may be dropped
  // to break up the lattice, but only while both endpoints keep degree >= 2
  // after all edges are placed; to keep this simple and safe we place all
  // edges first and never materialize dropped local segments, tracking the
  // would-be degree instead.
  struct PendingEdge {
    NodeId a;
    NodeId b;
    RoadClass road_class;
  };
  std::vector<PendingEdge> pending;
  for (int r = 0; r < lattice.rows; ++r) {
    const RoadClass horizontal = line_class(r);
    for (int c = 0; c + 1 < lattice.cols; ++c) {
      pending.push_back({lattice.at(c, r), lattice.at(c + 1, r), horizontal});
    }
  }
  for (int c = 0; c < lattice.cols; ++c) {
    const RoadClass vertical = line_class(c);
    for (int r = 0; r + 1 < lattice.rows; ++r) {
      pending.push_back({lattice.at(c, r), lattice.at(c, r + 1), vertical});
    }
  }

  std::vector<int> degree(net.node_count(), 0);
  for (const PendingEdge& e : pending) {
    ++degree[e.a];
    ++degree[e.b];
  }
  for (const PendingEdge& e : pending) {
    const bool droppable = e.road_class == RoadClass::kLocal &&
                           degree[e.a] > 2 && degree[e.b] > 2;
    if (droppable && rng.chance(cfg.local_drop_probability)) {
      --degree[e.a];
      --degree[e.b];
      continue;
    }
    net.add_edge(e.a, e.b, class_speed(e.road_class), e.road_class);
  }

  SALARM_ASSERT(net.largest_component_size() == net.node_count(),
                "synthetic network must be connected");
  return net;
}

}  // namespace salarm::roadnet
