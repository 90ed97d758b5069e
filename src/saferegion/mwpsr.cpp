#include "saferegion/mwpsr.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"

namespace salarm::saferegion {

namespace {

/// Quadrant sign conventions: I(+x,+y), II(-x,+y), III(-x,-y), IV(+x,-y).
constexpr std::array<double, 4> kSignX{+1.0, -1.0, -1.0, +1.0};
constexpr std::array<double, 4> kSignY{+1.0, +1.0, -1.0, -1.0};

/// A point in quadrant-local magnitude coordinates (both >= 0).
struct LocalPoint {
  double x;
  double y;
};

/// Per-direction extents of a rectangle around the position:
/// [0]=+x, [1]=+y, [2]=-x, [3]=-y (all magnitudes).
using Extents = std::array<double, 4>;

double quadrant_x_extent(const Extents& e, std::size_t q) {
  return (q == 0 || q == 3) ? e[0] : e[2];
}
double quadrant_y_extent(const Extents& e, std::size_t q) {
  return (q == 0 || q == 1) ? e[1] : e[3];
}

double area_of_extents(const Extents& e) {
  return (e[0] + e[2]) * (e[1] + e[3]);
}

double weighted_perimeter_of_extents(const Extents& e,
                                     const QuadrantWeights& w) {
  double sum = 0.0;
  for (std::size_t q = 0; q < 4; ++q) {
    sum += w[q] * (quadrant_x_extent(e, q) + quadrant_y_extent(e, q));
  }
  return 4.0 * sum;
}

/// Applies a tension-point choice for quadrant q to the running extents.
Extents apply_choice(Extents e, std::size_t q, LocalPoint t) {
  const std::size_t xd = (q == 0 || q == 3) ? 0 : 2;
  const std::size_t yd = (q == 0 || q == 1) ? 1 : 3;
  e[xd] = std::min(e[xd], t.x);
  e[yd] = std::min(e[yd], t.y);
  return e;
}

}  // namespace

double weighted_perimeter(const geo::Rect& rect, geo::Point position,
                          const QuadrantWeights& weights) {
  SALARM_REQUIRE(rect.contains(position),
                 "weighted perimeter needs the position inside the rect");
  const Extents e{rect.hi().x - position.x, rect.hi().y - position.y,
                  position.x - rect.lo().x, position.y - rect.lo().y};
  return weighted_perimeter_of_extents(e, weights);
}

RectSafeRegion compute_mwpsr(geo::Point position, double heading,
                             const geo::Rect& cell,
                             std::span<const geo::Rect> alarm_regions,
                             const MotionModel& model,
                             const MwpsrOptions& options) {
  SALARM_REQUIRE(cell.contains(position), "position outside its grid cell");
  RectSafeRegion result;

  // Definition (ii): position strictly inside one or more alarm regions —
  // the safe region is the intersection of the containing regions (within
  // the cell). Under one-shot semantics such alarms have already fired.
  geo::Rect containing = cell;
  bool inside_any = false;
  for (const geo::Rect& a : alarm_regions) {
    ++result.ops;
    if (a.interior_contains(position)) {
      inside_any = true;
      const auto inter = containing.intersection(a);
      SALARM_ASSERT(inter.has_value(),
                    "containing alarm regions must intersect at the position");
      containing = *inter;
    }
  }
  if (inside_any) {
    result.rect = containing;
    result.inside_alarm = true;
    return result;
  }

  // Cell extents per direction (+x, +y, -x, -y).
  const Extents cell_extents{cell.hi().x - position.x,
                             cell.hi().y - position.y,
                             position.x - cell.lo().x,
                             position.y - cell.lo().y};

  // Reused across calls, cleared here; thread-local because shard workers
  // compute regions concurrently.
  struct Scratch {
    std::array<std::vector<LocalPoint>, 4> candidates;
    std::vector<LocalPoint> kept;
    std::array<std::vector<LocalPoint>, 4> tension;
  };
  thread_local Scratch scratch;
  auto& [candidates, kept, tension] = scratch;
  for (std::size_t q = 0; q < 4; ++q) {
    candidates[q].clear();
    tension[q].clear();
  }

  // Step 1: candidate points per quadrant, clamped to the quadrant axes.
  for (const geo::Rect& a : alarm_regions) {
    for (std::size_t q = 0; q < 4; ++q) {
      ++result.ops;
      // Alarm interval in quadrant-local coordinates.
      const double lo_x = kSignX[q] > 0 ? a.lo().x - position.x
                                        : position.x - a.hi().x;
      const double hi_x = kSignX[q] > 0 ? a.hi().x - position.x
                                        : position.x - a.lo().x;
      const double lo_y = kSignY[q] > 0 ? a.lo().y - position.y
                                        : position.y - a.hi().y;
      const double hi_y = kSignY[q] > 0 ? a.hi().y - position.y
                                        : position.y - a.lo().y;
      if (hi_x <= 0.0 || hi_y <= 0.0) continue;  // no interior in quadrant
      const LocalPoint cand{std::max(lo_x, 0.0), std::max(lo_y, 0.0)};
      // Candidates at/beyond the cell border cannot bind inside the cell.
      const double ex = quadrant_x_extent(cell_extents, q);
      const double ey = quadrant_y_extent(cell_extents, q);
      if (cand.x >= ex || cand.y >= ey) continue;
      // cand == (0,0) is legal here: the position sits exactly on the
      // alarm's corner/boundary (which does not trigger under the open-
      // interior semantics); the staircase collapses that quadrant.
      candidates[q].push_back(cand);
    }
  }

  // Steps 1 (pruning) + 2: tension-point staircases per quadrant.
  for (std::size_t q = 0; q < 4; ++q) {
    auto& cand = candidates[q];
    const double ex = quadrant_x_extent(cell_extents, q);
    const double ey = quadrant_y_extent(cell_extents, q);
    std::sort(cand.begin(), cand.end(), [](LocalPoint a, LocalPoint b) {
      return a.x != b.x ? a.x < b.x : a.y < b.y;
    });
    result.ops += cand.size();  // sort pass (counted linearly per element)

    kept.clear();
    if (options.prune_dominated) {
      // Weakly dominated candidates are implied by a stronger constraint:
      // keep only the staircase of strictly decreasing y.
      double min_y = std::numeric_limits<double>::infinity();
      for (const LocalPoint c : cand) {
        ++result.ops;
        if (c.y < min_y) {
          kept.push_back(c);
          min_y = c.y;
        }
      }
    } else {
      result.ops += cand.size();
      kept = cand;
    }

    auto& stairs = tension[q];
    if (kept.empty()) {
      stairs.push_back({ex, ey});
      ++result.ops;
      continue;
    }
    // With pruning, kept is x-increasing / y-decreasing and the staircase
    // below is exact. Without pruning (ablation) the same construction on
    // the running y-minimum stays sound, merely redundant.
    stairs.push_back({kept.front().x, ey});
    double min_y = kept.front().y;
    for (std::size_t i = 1; i < kept.size(); ++i) {
      ++result.ops;
      if (kept[i].x > kept[i - 1].x) {
        stairs.push_back({kept[i].x, min_y});
      }
      min_y = std::min(min_y, kept[i].y);
    }
    stairs.push_back({ex, min_y});
    result.ops += stairs.size();
  }

  const QuadrantWeights weights = options.weighted
                                      ? model.quadrant_weights(heading)
                                      : QuadrantWeights{{0.25, 0.25, 0.25,
                                                         0.25}};

  bool exhaustive = options.assembly == MwpsrAssembly::kExhaustive;
  if (options.assembly == MwpsrAssembly::kAuto) {
    const std::size_t combinations = tension[0].size() * tension[1].size() *
                                     tension[2].size() * tension[3].size();
    exhaustive = combinations <= kExhaustiveLimit;
  }

  // Choice rule shared by both assemblies: maximize the weighted
  // perimeter; among candidates within (1 - eps) of the running maximum,
  // prefer the larger area (see MwpsrOptions::area_tiebreak_epsilon).
  const double eps = options.area_tiebreak_epsilon;
  SALARM_REQUIRE(eps >= 0.0 && eps < 1.0, "tie-break epsilon out of range");
  struct Choice {
    double wp = -1.0;
    double area = -1.0;
    Extents extents{};
    bool valid = false;

    void consider(double new_wp, const Extents& e, double epsilon) {
      const double new_area = area_of_extents(e);
      if (!valid) {
        *this = {new_wp, new_area, e, true};
        return;
      }
      if (new_wp > wp) {
        // A strictly better perimeter wins unless it is within the epsilon
        // band of the incumbent and smaller in area.
        if (new_wp * (1.0 - epsilon) <= wp && new_area < area) {
          wp = new_wp;  // remember the better perimeter for future bands
          return;
        }
        *this = {new_wp, new_area, e, true};
        return;
      }
      if (new_wp >= wp * (1.0 - epsilon) && new_area > area) {
        extents = e;
        area = new_area;
      }
    }
  };

  Extents best_extents = cell_extents;
  if (exhaustive) {
    // Steps 3+4, exhaustive variant: every combination of one component
    // rectangle (tension point) per quadrant.
    Choice best;
    for (const LocalPoint t0 : tension[0]) {
      for (const LocalPoint t1 : tension[1]) {
        for (const LocalPoint t2 : tension[2]) {
          for (const LocalPoint t3 : tension[3]) {
            ++result.ops;
            Extents e = cell_extents;
            e = apply_choice(e, 0, t0);
            e = apply_choice(e, 1, t1);
            e = apply_choice(e, 2, t2);
            e = apply_choice(e, 3, t3);
            best.consider(weighted_perimeter_of_extents(e, weights), e, eps);
          }
        }
      }
    }
    best_extents = best.extents;
  } else {
    // Steps 3+4, greedy variant: quadrants in decreasing pdf mass, each
    // choosing the tension point maximizing the running weighted perimeter.
    std::array<std::size_t, 4> order{0, 1, 2, 3};
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return weights[a] != weights[b] ? weights[a] > weights[b] : a < b;
    });
    Extents current = cell_extents;
    for (const std::size_t q : order) {
      Choice best;
      for (const LocalPoint t : tension[q]) {
        ++result.ops;
        const Extents e = apply_choice(current, q, t);
        best.consider(weighted_perimeter_of_extents(e, weights), e, eps);
      }
      if (best.valid) current = best.extents;
    }
    best_extents = current;
  }

  // Nudge alarm-bound edges one ulp toward the position so floating-point
  // round-trips can never leave the rectangle overlapping an alarm
  // interior. Cell-bound edges stay exact, so a subscriber riding the
  // universe border remains inside its region.
  auto snap = [](double edge, double cell_edge, double toward) {
    return edge == cell_edge ? edge : std::nextafter(edge, toward);
  };
  const double hi_x = snap(position.x + best_extents[0], cell.hi().x,
                           position.x);
  const double hi_y = snap(position.y + best_extents[1], cell.hi().y,
                           position.y);
  const double lo_x = snap(position.x - best_extents[2], cell.lo().x,
                           position.x);
  const double lo_y = snap(position.y - best_extents[3], cell.lo().y,
                           position.y);
  result.rect = geo::Rect({std::min(lo_x, position.x),
                           std::min(lo_y, position.y)},
                          {std::max(hi_x, position.x),
                           std::max(hi_y, position.y)});
  return result;
}

}  // namespace salarm::saferegion
