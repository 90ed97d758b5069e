#include "roadnet/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/error.h"

namespace salarm::roadnet {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Router::Router(const RoadNetwork& network)
    : network_(network), best_cost_(network.node_count(), kInf),
      came_from_(network.node_count(), 0),
      visit_epoch_(network.node_count(), 0) {}

Route Router::route(NodeId from, NodeId to) {
  SALARM_REQUIRE(from < network_.node_count() && to < network_.node_count(),
                 "route endpoint out of range");
  ++epoch_;

  const double max_speed = network_.max_speed_mps();
  SALARM_REQUIRE(max_speed > 0.0, "network has no edges");
  const geo::Point goal = network_.node(to).pos;
  auto heuristic = [&](NodeId n) {
    return geo::distance(network_.node(n).pos, goal) / max_speed;
  };

  struct QueueItem {
    double f;  // g + h
    double g;
    NodeId node;
    bool operator>(const QueueItem& o) const { return f > o.f; }
  };
  std::priority_queue<QueueItem, std::vector<QueueItem>,
                      std::greater<QueueItem>>
      open;

  auto touch = [&](NodeId n) {
    if (visit_epoch_[n] != epoch_) {
      visit_epoch_[n] = epoch_;
      best_cost_[n] = kInf;
    }
  };

  touch(from);
  best_cost_[from] = 0.0;
  came_from_[from] = from;
  open.push({heuristic(from), 0.0, from});

  bool found = from == to;
  while (!open.empty() && !found) {
    const QueueItem item = open.top();
    open.pop();
    touch(item.node);
    if (item.g > best_cost_[item.node]) continue;  // stale queue entry
    if (item.node == to) {
      found = true;
      break;
    }
    for (const RoadNetwork::Adjacency& adj : network_.neighbors(item.node)) {
      const RoadEdge& e = network_.edge(adj.edge);
      const double g = item.g + e.length_m / e.speed_mps;
      touch(adj.neighbor);
      if (g < best_cost_[adj.neighbor]) {
        best_cost_[adj.neighbor] = g;
        came_from_[adj.neighbor] = item.node;
        open.push({g + heuristic(adj.neighbor), g, adj.neighbor});
      }
    }
  }

  Route result;
  if (!found) return result;

  // Reconstruct.
  std::vector<NodeId> reversed{to};
  while (reversed.back() != from) {
    reversed.push_back(came_from_[reversed.back()]);
  }
  result.nodes.assign(reversed.rbegin(), reversed.rend());
  result.travel_time_s = from == to ? 0.0 : best_cost_[to];
  for (std::size_t i = 0; i + 1 < result.nodes.size(); ++i) {
    result.length_m += geo::distance(network_.node(result.nodes[i]).pos,
                                     network_.node(result.nodes[i + 1]).pos);
  }
  return result;
}

}  // namespace salarm::roadnet
