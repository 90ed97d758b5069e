#include "corner_baseline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.h"
#include "saferegion/wire_format.h"
#include "sim/server.h"

namespace salarm::bench {

using saferegion::MotionModel;
using saferegion::QuadrantWeights;
using saferegion::RectSafeRegion;

namespace {

struct LocalPoint {
  double x;
  double y;
};

/// Extents per direction: [0]=+x, [1]=+y, [2]=-x, [3]=-y.
using Extents = std::array<double, 4>;

double x_extent(const Extents& e, std::size_t q) {
  return (q == 0 || q == 3) ? e[0] : e[2];
}
double y_extent(const Extents& e, std::size_t q) {
  return (q == 0 || q == 1) ? e[1] : e[3];
}

double weighted_perimeter_of(const Extents& e, const QuadrantWeights& w) {
  double sum = 0.0;
  for (std::size_t q = 0; q < 4; ++q) {
    sum += w[q] * (x_extent(e, q) + y_extent(e, q));
  }
  return 4.0 * sum;
}

/// Staircase of maximal feasible corners for one quadrant's candidates.
std::vector<LocalPoint> staircase(std::vector<LocalPoint> cand, double ex,
                                  double ey) {
  std::vector<LocalPoint> stairs;
  std::sort(cand.begin(), cand.end(), [](LocalPoint a, LocalPoint b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  std::vector<LocalPoint> kept;
  double min_y = std::numeric_limits<double>::infinity();
  for (const LocalPoint c : cand) {
    if (c.y < min_y) {
      kept.push_back(c);
      min_y = c.y;
    }
  }
  if (kept.empty()) {
    stairs.push_back({ex, ey});
    return stairs;
  }
  stairs.push_back({kept.front().x, ey});
  for (std::size_t i = 1; i < kept.size(); ++i) {
    stairs.push_back({kept[i].x, kept[i - 1].y});
  }
  stairs.push_back({ex, kept.back().y});
  return stairs;
}

}  // namespace

RectSafeRegion compute_corner_baseline(
    geo::Point position, double heading, const geo::Rect& cell,
    std::span<const geo::Rect> alarm_regions, const MotionModel& model) {
  SALARM_REQUIRE(cell.contains(position), "position outside its grid cell");
  RectSafeRegion result;

  const Extents cell_extents{cell.hi().x - position.x,
                             cell.hi().y - position.y,
                             position.x - cell.lo().x,
                             position.y - cell.lo().y};

  // The baseline's defining (flawed) step: every alarm contributes ONE
  // candidate — its geometrically nearest corner, assigned to the quadrant
  // that corner happens to lie in. Alarm regions straddling an axis or
  // containing the position constrain other quadrants too, which this
  // construction ignores.
  std::array<std::vector<LocalPoint>, 4> candidates;
  for (const geo::Rect& a : alarm_regions) {
    ++result.ops;
    const double cx = std::abs(a.lo().x - position.x) <=
                              std::abs(a.hi().x - position.x)
                          ? a.lo().x
                          : a.hi().x;
    const double cy = std::abs(a.lo().y - position.y) <=
                              std::abs(a.hi().y - position.y)
                          ? a.lo().y
                          : a.hi().y;
    const std::size_t q = cx >= position.x ? (cy >= position.y ? 0 : 3)
                                           : (cy >= position.y ? 1 : 2);
    const LocalPoint cand{std::abs(cx - position.x),
                          std::abs(cy - position.y)};
    if (cand.x >= x_extent(cell_extents, q) ||
        cand.y >= y_extent(cell_extents, q)) {
      continue;
    }
    candidates[q].push_back(cand);
  }

  std::array<std::vector<LocalPoint>, 4> tension;
  for (std::size_t q = 0; q < 4; ++q) {
    tension[q] = staircase(std::move(candidates[q]),
                           x_extent(cell_extents, q),
                           y_extent(cell_extents, q));
    result.ops += tension[q].size();
  }

  // Exhaustive maximum weighted perimeter over the (small) tension sets.
  const QuadrantWeights weights = model.quadrant_weights(heading);
  Extents best = cell_extents;
  double best_wp = -1.0;
  for (const LocalPoint t0 : tension[0]) {
    for (const LocalPoint t1 : tension[1]) {
      for (const LocalPoint t2 : tension[2]) {
        for (const LocalPoint t3 : tension[3]) {
          ++result.ops;
          const Extents e{std::min({cell_extents[0], t0.x, t3.x}),
                          std::min({cell_extents[1], t0.y, t1.y}),
                          std::min({cell_extents[2], t1.x, t2.x}),
                          std::min({cell_extents[3], t2.y, t3.y})};
          const double wp = weighted_perimeter_of(e, weights);
          if (wp > best_wp) {
            best_wp = wp;
            best = e;
          }
        }
      }
    }
  }

  result.rect = geo::Rect({position.x - best[2], position.y - best[3]},
                          {position.x + best[0], position.y + best[1]});
  return result;
}

CornerBaselineStrategy::CornerBaselineStrategy(net::ClientLink& link,
                                               MotionModel model)
    : link_(link), model_(model), regions_(link.subscriber_count()) {}

void CornerBaselineStrategy::report_and_refresh(
    alarms::SubscriberId s, const mobility::VehicleSample& sample,
    std::uint64_t tick) {
  (void)link_.report(s, sample.pos, tick);
  const auto region = link_.request(s, sample.pos, [&](sim::Server& server) {
    const geo::Rect cell =
        server.grid().cell_rect(server.grid().cell_of(sample.pos));
    // Local scratch: shard tasks run grants concurrently.
    std::vector<geo::Rect> regions;
    alarms::AlarmStore& store = server.store();
    sim::Metrics& metrics = server.metrics();
    const std::uint64_t before = store.index_node_accesses();
    store.relevant_regions_in_window(cell, s, alarms::AlarmStore::Scopes::kAll,
                                     regions);
    metrics.server_region_ops +=
        (store.index_node_accesses() - before) * sim::kOpsPerNodeAccess;
    const RectSafeRegion r = compute_corner_baseline(
        sample.pos, sample.heading, cell, regions, model_);
    metrics.server_region_ops += r.ops;
    ++metrics.safe_region_recomputes;
    const std::size_t bytes = wire::encoded_size(wire::RectSafeRegionMsg{});
    metrics.downstream_region_bytes += bytes;
    metrics.region_payload_bytes.add(static_cast<double>(bytes));
    return r.rect;
  });
  if (region.has_value()) regions_[s] = *region;
}

void CornerBaselineStrategy::initialize(
    alarms::SubscriberId s, const mobility::VehicleSample& sample) {
  report_and_refresh(s, sample, 0);
}

void CornerBaselineStrategy::on_tick(alarms::SubscriberId s,
                                     const mobility::VehicleSample& sample,
                                     std::uint64_t tick) {
  auto& region = regions_[s];
  for (const auto& push : link_.take_invalidations(s)) {
    (void)push;
    ++link_.metrics().client_check_ops;
    region.reset();
  }
  auto& metrics = link_.metrics();
  ++metrics.client_checks;
  ++metrics.client_check_ops;
  if (region.has_value() && region->contains(sample.pos)) return;
  report_and_refresh(s, sample, tick);
}

sim::Simulation::StrategyFactory corner_baseline(MotionModel model) {
  return [model](net::ClientLink& link) {
    return std::make_unique<CornerBaselineStrategy>(link, model);
  };
}

}  // namespace salarm::bench
