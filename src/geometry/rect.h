// Axis-aligned rectangles.
//
// Rectangles are the workhorse of the whole library: alarm regions, grid
// cells, safe regions and R*-tree bounding boxes are all Rects. The
// containment conventions matter for correctness of the safe-region
// algorithms and are therefore spelled out:
//
//  * contains(p)            — closed containment (boundary included).
//  * interior_contains(p)   — open containment (boundary excluded).
//  * intersects(r)          — closed intersection (touching counts).
//  * interiors_intersect(r) — open intersection (touching does NOT count).
//
// A safe region may legally *touch* an alarm region (the alarm fires only
// when the subscriber enters the region), so the safe-region algorithms use
// the interior variants.
#pragma once

#include <optional>
#include <string>

#include "geometry/point.h"

namespace salarm::geo {

/// Axis-aligned rectangle [lo.x, hi.x] × [lo.y, hi.y].
/// Invariant: lo.x <= hi.x and lo.y <= hi.y (degenerate zero-width/height
/// rectangles are allowed; they arise legitimately as collapsed safe
/// regions).
class Rect {
 public:
  /// Constructs the empty-extent rectangle at the origin.
  constexpr Rect() = default;

  /// Constructs from corner points; throws PreconditionError if out of
  /// order.
  Rect(Point lo, Point hi);

  /// Constructs from coordinates; throws PreconditionError if out of order.
  Rect(double lo_x, double lo_y, double hi_x, double hi_y);

  /// Builds the bounding box of two arbitrary corner points (any order).
  static Rect bounding(Point a, Point b);

  /// Builds a square of the given side centered at c.
  static Rect centered_square(Point c, double side);

  Point lo() const { return lo_; }
  Point hi() const { return hi_; }
  double width() const { return hi_.x - lo_.x; }
  double height() const { return hi_.y - lo_.y; }
  double area() const { return width() * height(); }
  double perimeter() const { return 2.0 * (width() + height()); }
  double margin() const { return width() + height(); }
  Point center() const { return {(lo_.x + hi_.x) / 2, (lo_.y + hi_.y) / 2}; }
  bool degenerate() const { return width() == 0.0 || height() == 0.0; }

  /// Closed containment: boundary points are inside.
  bool contains(Point p) const {
    return p.x >= lo_.x && p.x <= hi_.x && p.y >= lo_.y && p.y <= hi_.y;
  }

  /// Open containment: boundary points are outside.
  bool interior_contains(Point p) const {
    return p.x > lo_.x && p.x < hi_.x && p.y > lo_.y && p.y < hi_.y;
  }

  /// Closed containment of another rectangle.
  bool contains(const Rect& r) const {
    return r.lo_.x >= lo_.x && r.hi_.x <= hi_.x && r.lo_.y >= lo_.y &&
           r.hi_.y <= hi_.y;
  }

  /// Closed intersection test: rectangles that merely touch intersect.
  bool intersects(const Rect& r) const {
    return lo_.x <= r.hi_.x && r.lo_.x <= hi_.x && lo_.y <= r.hi_.y &&
           r.lo_.y <= hi_.y;
  }

  /// Open intersection test: the intersection must have positive area.
  bool interiors_intersect(const Rect& r) const {
    return lo_.x < r.hi_.x && r.lo_.x < hi_.x && lo_.y < r.hi_.y &&
           r.lo_.y < hi_.y;
  }

  /// Geometric intersection; empty when the rectangles do not (closed)
  /// intersect.
  std::optional<Rect> intersection(const Rect& r) const;

  /// Smallest rectangle containing both.
  Rect united(const Rect& r) const;

  /// Smallest rectangle containing this and p.
  Rect united(Point p) const;

  /// Rectangle grown by d on every side (d may be negative as long as the
  /// result stays valid; otherwise throws PreconditionError).
  Rect expanded(double d) const;

  /// Euclidean distance from p to the closed rectangle (0 when inside).
  double distance(Point p) const;

  /// Squared distance from p to the closed rectangle (0 when inside).
  double squared_distance(Point p) const;

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }

  std::string to_string() const;

 private:
  Point lo_{};
  Point hi_{};
};

/// Area of overlap between two rectangles (0 when disjoint).
double overlap_area(const Rect& a, const Rect& b);

}  // namespace salarm::geo
