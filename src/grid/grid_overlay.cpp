#include "grid/grid_overlay.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace salarm::grid {
namespace {

// Index of the cell of an axis [lo, hi] split into n cells of width w that
// holds v; values past the last cell fold into it.
std::uint32_t axis_index(double v, double lo, double w, std::uint32_t n) {
  auto i = static_cast<std::int64_t>(std::floor((v - lo) / w));
  i = std::clamp<std::int64_t>(i, 0, static_cast<std::int64_t>(n) - 1);
  return static_cast<std::uint32_t>(i);
}

// The n + 1 cell edges of that axis, exactly as axis_index draws them:
// edge k is the least value it maps to cell k or above. lo + w * k can sit
// an ulp off that value, and the last edge is hi itself, so cell_rect built
// from these always contains the points cell_of maps to the cell.
std::vector<double> axis_edges(double lo, double hi, double w,
                               std::uint32_t n) {
  std::vector<double> edges(n + 1);
  edges[0] = lo;
  edges[n] = hi;
  for (std::uint32_t k = 1; k < n; ++k) {
    // axis_index is monotone in v: step down below the edge, then up to it.
    double e = lo + w * k;
    while (axis_index(e, lo, w, n) >= k) e = std::nextafter(e, lo);
    while (axis_index(e, lo, w, n) < k) e = std::nextafter(e, hi);
    edges[k] = e;
  }
  return edges;
}

}  // namespace

GridOverlay GridOverlay::with_cell_area(const geo::Rect& universe,
                                        double cell_area_sqm) {
  SALARM_REQUIRE(cell_area_sqm > 0.0, "cell area must be positive");
  SALARM_REQUIRE(universe.area() > 0.0, "universe must have positive area");
  SALARM_REQUIRE(cell_area_sqm <= universe.area(),
                 "cell area exceeds universe");
  // Choose cols/rows so each cell is as square as possible with area close
  // to the target.
  const double side = std::sqrt(cell_area_sqm);
  const auto cols = static_cast<std::uint32_t>(
      std::max(1.0, std::round(universe.width() / side)));
  const auto rows = static_cast<std::uint32_t>(
      std::max(1.0, std::round(universe.height() / side)));
  return GridOverlay(universe, cols, rows);
}

GridOverlay::GridOverlay(const geo::Rect& universe, std::uint32_t cols,
                         std::uint32_t rows)
    : universe_(universe), cols_(cols), rows_(rows),
      cell_w_(universe.width() / cols), cell_h_(universe.height() / rows) {
  SALARM_REQUIRE(cols >= 1 && rows >= 1, "grid needs at least one cell");
  SALARM_REQUIRE(universe.area() > 0.0, "universe must have positive area");
  x_edges_ = axis_edges(universe.lo().x, universe.hi().x, cell_w_, cols);
  y_edges_ = axis_edges(universe.lo().y, universe.hi().y, cell_h_, rows);
}

CellId GridOverlay::cell_of(geo::Point p) const {
  SALARM_REQUIRE(universe_.contains(p), "point outside the universe");
  return {axis_index(p.x, universe_.lo().x, cell_w_, cols_),
          axis_index(p.y, universe_.lo().y, cell_h_, rows_)};
}

geo::Rect GridOverlay::cell_rect(CellId id) const {
  SALARM_REQUIRE(id.col < cols_ && id.row < rows_, "cell id out of range");
  return geo::Rect(x_edges_[id.col], y_edges_[id.row], x_edges_[id.col + 1],
                   y_edges_[id.row + 1]);
}

std::vector<CellId> GridOverlay::cells_intersecting(const geo::Rect& r) const {
  std::vector<CellId> out;
  const auto clipped = universe_.intersection(r);
  if (!clipped) return out;
  const CellId lo = cell_of(clipped->lo());
  const CellId hi = cell_of(clipped->hi());
  out.reserve(static_cast<std::size_t>(hi.col - lo.col + 1) *
              (hi.row - lo.row + 1));
  for (std::uint32_t row = lo.row; row <= hi.row; ++row) {
    for (std::uint32_t col = lo.col; col <= hi.col; ++col) {
      out.push_back({col, row});
    }
  }
  return out;
}

}  // namespace salarm::grid
