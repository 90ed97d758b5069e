// Grid overlay on the Universe of Discourse (paper §2.2).
//
// The server overlays a uniform grid on the universe; a subscriber's safe
// region is always computed inside their current grid cell, which bounds
// the number of alarms any single safe-region computation must consider.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"

namespace salarm::grid {

/// Identifier of a grid cell: (column, row) plus a flat index.
struct CellId {
  std::uint32_t col = 0;
  std::uint32_t row = 0;

  friend bool operator==(CellId a, CellId b) {
    return a.col == b.col && a.row == b.row;
  }
};

/// A uniform grid covering a rectangular universe. Points on shared cell
/// edges belong to the cell with the larger index (half-open cells), except
/// on the universe's top/right boundary, which belongs to the last cell, so
/// every point of the universe maps to exactly one cell.
class GridOverlay {
 public:
  /// Grid with cells of (approximately) the given target cell area in m².
  /// The universe is divided into an integral number of equal cells whose
  /// area is as close as possible to the target, matching the paper's
  /// "grid cell size in km²" parameter. Throws if the target is not
  /// positive or exceeds the universe.
  static GridOverlay with_cell_area(const geo::Rect& universe,
                                    double cell_area_sqm);

  /// Grid with an explicit number of columns and rows (both >= 1).
  GridOverlay(const geo::Rect& universe, std::uint32_t cols,
              std::uint32_t rows);

  const geo::Rect& universe() const { return universe_; }
  std::uint32_t cols() const { return cols_; }
  std::uint32_t rows() const { return rows_; }
  std::size_t cell_count() const {
    return static_cast<std::size_t>(cols_) * rows_;
  }
  double cell_width() const { return cell_w_; }
  double cell_height() const { return cell_h_; }
  double cell_area() const { return cell_w_ * cell_h_; }

  /// Cell containing p. Requires p inside the (closed) universe.
  CellId cell_of(geo::Point p) const;

  /// Geometric extent of a cell. Requires a valid cell id.
  geo::Rect cell_rect(CellId id) const;

  std::size_t flat_index(CellId id) const {
    return static_cast<std::size_t>(id.row) * cols_ + id.col;
  }

  /// All cells intersecting r (clipped to the universe) under the same
  /// half-open convention as cell_of: a window that merely touches a cell's
  /// upper/right edge does not include the cell above/right of that edge's
  /// owner.
  std::vector<CellId> cells_intersecting(const geo::Rect& r) const;

 private:
  geo::Rect universe_;
  std::uint32_t cols_;
  std::uint32_t rows_;
  double cell_w_;
  double cell_h_;
  /// Cell edges per axis (cols + 1 and rows + 1 of them), matching cell_of.
  std::vector<double> x_edges_;
  std::vector<double> y_edges_;
};

}  // namespace salarm::grid
