// Spatial partitioning of the Universe of Discourse into shards.
//
// The cluster tier splits the universe into N contiguous stripes of whole
// grid-cell columns (or rows when the grid is taller than wide). Aligning
// shard boundaries to grid-cell boundaries is what makes sharding exact:
// every safe region is computed within a single grid cell (DESIGN.md), a
// cell belongs wholly to one shard, so no safe region ever spans shards
// and a shard that replicates all alarms intersecting its extent answers
// every cell-window query identically to the monolithic server.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "grid/grid_overlay.h"

namespace salarm::cluster {

/// Maps points and grid cells to shard indices. Shards are numbered
/// left-to-right (columns) or bottom-to-top (rows); every cell of the grid
/// belongs to exactly one shard. The effective shard count is clamped to
/// the number of stripes available (a 5-column grid can host at most 5
/// column shards).
class ShardMap {
 public:
  /// Partitions the grid into (up to) `shard_count` stripes. Requires
  /// shard_count >= 1.
  ShardMap(const grid::GridOverlay& grid, std::size_t shard_count);

  std::size_t shard_count() const { return extents_.size(); }

  /// Shard owning the given grid cell.
  std::size_t shard_of_cell(grid::CellId cell) const;

  /// Shard owning the point (via the grid's half-open cell convention, so
  /// every point of the universe has exactly one owner).
  std::size_t shard_of(geo::Point p) const;

  /// Geometric extent of a shard: the union of its cells' rectangles.
  const geo::Rect& shard_extent(std::size_t shard) const;

 private:
  const grid::GridOverlay& grid_;
  bool by_columns_;
  /// stripe index (column or row) -> shard index.
  std::vector<std::size_t> stripe_shard_;
  /// shard -> geometric extent.
  std::vector<geo::Rect> extents_;
};

}  // namespace salarm::cluster
