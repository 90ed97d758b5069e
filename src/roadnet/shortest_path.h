// Time-optimal routing over a RoadNetwork.
#pragma once

#include <vector>

#include "roadnet/road_network.h"

namespace salarm::roadnet {

/// A route as a sequence of adjacent nodes, front() = origin, back() =
/// destination.
struct Route {
  std::vector<NodeId> nodes;
  double travel_time_s = 0.0;
  double length_m = 0.0;

  bool empty() const { return nodes.empty(); }
};

/// A* router minimizing travel time, with the admissible heuristic
/// straight-line-distance / network-max-speed. Reusable across queries
/// (scratch buffers, the open-set heap included, are kept between calls,
/// so a warm router allocates nothing); not thread-safe — use one Router
/// per thread.
class Router {
 public:
  explicit Router(const RoadNetwork& network);

  /// Fastest route from `from` to `to`, written into `out` (its capacity
  /// is reused). Leaves `out` empty when the destination is unreachable. A
  /// route from a node to itself contains that single node.
  void route(NodeId from, NodeId to, Route& out);

  /// The same, into a new Route.
  Route route(NodeId from, NodeId to) {
    Route out;
    route(from, to, out);
    return out;
  }

 private:
  struct QueueItem {
    double f;  // g + h
    double g;
    NodeId node;
    bool operator>(const QueueItem& o) const { return f > o.f; }
  };

  const RoadNetwork& network_;
  // Scratch, versioned to avoid O(V) clearing per query.
  std::vector<double> best_cost_;
  std::vector<NodeId> came_from_;
  std::vector<std::uint32_t> visit_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<QueueItem> open_;    ///< min-heap on f
  std::vector<NodeId> reversed_;   ///< the path, destination first
};

}  // namespace salarm::roadnet
