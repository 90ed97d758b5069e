#include "geometry/rect.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace salarm::geo {

Rect::Rect(Point lo, Point hi) : lo_(lo), hi_(hi) {
  SALARM_REQUIRE(lo.x <= hi.x && lo.y <= hi.y, "rect corners out of order");
}

Rect::Rect(double lo_x, double lo_y, double hi_x, double hi_y)
    : Rect(Point{lo_x, lo_y}, Point{hi_x, hi_y}) {}

Rect Rect::bounding(Point a, Point b) {
  return Rect({std::min(a.x, b.x), std::min(a.y, b.y)},
              {std::max(a.x, b.x), std::max(a.y, b.y)});
}

Rect Rect::centered_square(Point c, double side) {
  SALARM_REQUIRE(side >= 0.0, "negative square side");
  const double h = side / 2.0;
  return Rect({c.x - h, c.y - h}, {c.x + h, c.y + h});
}

std::optional<Rect> Rect::intersection(const Rect& r) const {
  if (!intersects(r)) return std::nullopt;
  return Rect({std::max(lo_.x, r.lo_.x), std::max(lo_.y, r.lo_.y)},
              {std::min(hi_.x, r.hi_.x), std::min(hi_.y, r.hi_.y)});
}

Rect Rect::united(const Rect& r) const {
  return Rect({std::min(lo_.x, r.lo_.x), std::min(lo_.y, r.lo_.y)},
              {std::max(hi_.x, r.hi_.x), std::max(hi_.y, r.hi_.y)});
}

Rect Rect::united(Point p) const {
  return Rect({std::min(lo_.x, p.x), std::min(lo_.y, p.y)},
              {std::max(hi_.x, p.x), std::max(hi_.y, p.y)});
}

Rect Rect::expanded(double d) const {
  return Rect({lo_.x - d, lo_.y - d}, {hi_.x + d, hi_.y + d});
}

double Rect::squared_distance(Point p) const {
  const double dx = std::max({lo_.x - p.x, 0.0, p.x - hi_.x});
  const double dy = std::max({lo_.y - p.y, 0.0, p.y - hi_.y});
  return dx * dx + dy * dy;
}

double Rect::distance(Point p) const { return std::sqrt(squared_distance(p)); }

std::string Rect::to_string() const {
  std::ostringstream os;
  os << "[(" << lo_.x << ',' << lo_.y << ")-(" << hi_.x << ',' << hi_.y
     << ")]";
  return os.str();
}

double overlap_area(const Rect& a, const Rect& b) {
  const double w = std::min(a.hi().x, b.hi().x) - std::max(a.lo().x, b.lo().x);
  const double h = std::min(a.hi().y, b.hi().y) - std::max(a.lo().y, b.lo().y);
  if (w <= 0.0 || h <= 0.0) return 0.0;
  return w * h;
}

}  // namespace salarm::geo
