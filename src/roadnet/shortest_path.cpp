#include "roadnet/shortest_path.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/error.h"

namespace salarm::roadnet {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Router::Router(const RoadNetwork& network)
    : network_(network), best_cost_(network.node_count(), kInf),
      came_from_(network.node_count(), 0),
      visit_epoch_(network.node_count(), 0) {}

void Router::route(NodeId from, NodeId to, Route& out) {
  SALARM_REQUIRE(from < network_.node_count() && to < network_.node_count(),
                 "route endpoint out of range");
  ++epoch_;

  const double max_speed = network_.max_speed_mps();
  SALARM_REQUIRE(max_speed > 0.0, "network has no edges");
  const geo::Point goal = network_.node(to).pos;
  auto heuristic = [&](NodeId n) {
    return geo::distance(network_.node(n).pos, goal) / max_speed;
  };

  // std::priority_queue's exact discipline over a reused vector, so the
  // expansion order, and with it every tie-broken route, is unchanged.
  const std::greater<QueueItem> later;
  open_.clear();
  auto push = [&](QueueItem item) {
    open_.push_back(item);
    std::push_heap(open_.begin(), open_.end(), later);
  };

  auto touch = [&](NodeId n) {
    if (visit_epoch_[n] != epoch_) {
      visit_epoch_[n] = epoch_;
      best_cost_[n] = kInf;
    }
  };

  touch(from);
  best_cost_[from] = 0.0;
  came_from_[from] = from;
  push({heuristic(from), 0.0, from});

  bool found = from == to;
  while (!open_.empty() && !found) {
    std::pop_heap(open_.begin(), open_.end(), later);
    const QueueItem item = open_.back();
    open_.pop_back();
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
        push({g + heuristic(adj.neighbor), g, adj.neighbor});
      }
    }
  }

  out.nodes.clear();
  out.travel_time_s = 0.0;
  out.length_m = 0.0;
  if (!found) return;

  // Reconstruct.
  reversed_.assign(1, to);
  while (reversed_.back() != from) {
    reversed_.push_back(came_from_[reversed_.back()]);
  }
  out.nodes.assign(reversed_.rbegin(), reversed_.rend());
  out.travel_time_s = from == to ? 0.0 : best_cost_[to];
  for (std::size_t i = 0; i + 1 < out.nodes.size(); ++i) {
    out.length_m += geo::distance(network_.node(out.nodes[i]).pos,
                                  network_.node(out.nodes[i + 1]).pos);
  }
}

}  // namespace salarm::roadnet
