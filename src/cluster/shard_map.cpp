#include "cluster/shard_map.h"

#include <algorithm>

#include "common/error.h"

namespace salarm::cluster {

ShardMap::ShardMap(const grid::GridOverlay& grid, std::size_t shard_count)
    : grid_(grid), by_columns_(grid.cols() >= grid.rows()) {
  SALARM_REQUIRE(shard_count >= 1, "need at least one shard");
  const std::size_t stripes = by_columns_ ? grid.cols() : grid.rows();
  const std::size_t shards = std::min(shard_count, stripes);

  stripe_shard_.resize(stripes);
  extents_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Balanced contiguous runs: shard i owns stripes [i*S/n, (i+1)*S/n).
    const std::size_t begin = i * stripes / shards;
    const std::size_t end = (i + 1) * stripes / shards;
    SALARM_ASSERT(begin < end, "empty shard stripe run");
    for (std::size_t s = begin; s < end; ++s) stripe_shard_[s] = i;

    // Extent from exact cell_rect coordinates so shard boundaries coincide
    // bit-for-bit with the cell edges the grid itself reports.
    const auto first = static_cast<std::uint32_t>(begin);
    const auto last = static_cast<std::uint32_t>(end - 1);
    const geo::Rect lo_cell = by_columns_ ? grid.cell_rect({first, 0})
                                          : grid.cell_rect({0, first});
    const geo::Rect hi_cell =
        by_columns_ ? grid.cell_rect({last, grid.rows() - 1})
                    : grid.cell_rect({grid.cols() - 1, last});
    extents_.push_back(lo_cell.united(hi_cell));
  }
}

std::size_t ShardMap::shard_of_cell(grid::CellId cell) const {
  const std::size_t stripe = by_columns_ ? cell.col : cell.row;
  SALARM_REQUIRE(stripe < stripe_shard_.size(), "cell outside the grid");
  return stripe_shard_[stripe];
}

std::size_t ShardMap::shard_of(geo::Point p) const {
  return shard_of_cell(grid_.cell_of(p));
}

const geo::Rect& ShardMap::shard_extent(std::size_t shard) const {
  SALARM_REQUIRE(shard < extents_.size(), "no such shard");
  return extents_[shard];
}

}  // namespace salarm::cluster
