#include "segment.h"

#include <algorithm>

namespace salarm::geo {

std::optional<std::pair<double, double>> clip_segment(Point a, Point b,
                                                      const Rect& rect) {
  // Liang-Barsky slab clipping against the closed rectangle.
  double t0 = 0.0;
  double t1 = 1.0;
  const double d[2] = {b.x - a.x, b.y - a.y};
  const double lo[2] = {rect.lo().x, rect.lo().y};
  const double hi[2] = {rect.hi().x, rect.hi().y};
  const double start[2] = {a.x, a.y};
  for (int axis = 0; axis < 2; ++axis) {
    if (d[axis] == 0.0) {
      if (start[axis] < lo[axis] || start[axis] > hi[axis]) {
        return std::nullopt;
      }
      continue;
    }
    double enter = (lo[axis] - start[axis]) / d[axis];
    double exit = (hi[axis] - start[axis]) / d[axis];
    if (enter > exit) std::swap(enter, exit);
    t0 = std::max(t0, enter);
    t1 = std::min(t1, exit);
    if (t0 > t1) return std::nullopt;
  }
  return std::make_pair(t0, t1);
}

bool segment_intersects_interior(Point a, Point b, const Rect& rect) {
  if (rect.degenerate()) return false;  // empty interior
  const auto clipped = clip_segment(a, b, rect);
  if (!clipped) return false;
  const auto [t0, t1] = *clipped;
  // A positive-length stay inside the closed rect means the open interior
  // is entered (the boundary has measure zero along a non-tangent chord);
  // a zero-length intersection is a touch. The remaining subtlety is a
  // segment running exactly along an edge: positive length but never
  // interior — its midpoint stays on the boundary.
  if (t1 <= t0) {
    // Single-point contact, or a degenerate (zero-length) segment: decide
    // by the point itself.
    const Point p = lerp(a, b, t0);
    return rect.interior_contains(p);
  }
  const Point mid = lerp(a, b, (t0 + t1) / 2.0);
  return rect.interior_contains(mid);
}

}  // namespace salarm::geo
