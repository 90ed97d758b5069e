#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "grid/grid_overlay.h"

namespace salarm::grid {
namespace {

using geo::Point;
using geo::Rect;

TEST(GridOverlayTest, ExplicitDimensions) {
  const GridOverlay g(Rect(0, 0, 100, 50), 10, 5);
  EXPECT_EQ(g.cols(), 10u);
  EXPECT_EQ(g.rows(), 5u);
  EXPECT_EQ(g.cell_count(), 50u);
  EXPECT_DOUBLE_EQ(g.cell_width(), 10.0);
  EXPECT_DOUBLE_EQ(g.cell_height(), 10.0);
  EXPECT_DOUBLE_EQ(g.cell_area(), 100.0);
}

TEST(GridOverlayTest, WithCellAreaApproximatesTarget) {
  const Rect universe(0, 0, 32000, 32000);
  for (const double sqkm : {0.4, 0.625, 1.11, 2.5, 10.0}) {
    const GridOverlay g =
        GridOverlay::with_cell_area(universe, sqkm_to_sqm(sqkm));
    // Cells tile the universe exactly and area is within 30% of target
    // (integral cell counts force some rounding).
    EXPECT_NEAR(g.cell_area() * static_cast<double>(g.cell_count()),
                universe.area(), 1e-3);
    EXPECT_NEAR(g.cell_area(), sqkm_to_sqm(sqkm), 0.3 * sqkm_to_sqm(sqkm));
  }
}

TEST(GridOverlayTest, WithCellAreaValidation) {
  const Rect universe(0, 0, 100, 100);
  EXPECT_THROW(GridOverlay::with_cell_area(universe, 0.0), PreconditionError);
  EXPECT_THROW(GridOverlay::with_cell_area(universe, -5.0), PreconditionError);
  EXPECT_THROW(GridOverlay::with_cell_area(universe, 1e9), PreconditionError);
  EXPECT_THROW(GridOverlay(universe, 0, 3), PreconditionError);
  EXPECT_THROW(GridOverlay(Rect(0, 0, 0, 100), 1, 1), PreconditionError);
}

TEST(GridOverlayTest, CellOfMapsInteriorPoints) {
  const GridOverlay g(Rect(0, 0, 100, 100), 10, 10);
  EXPECT_EQ(g.cell_of({5, 5}), (CellId{0, 0}));
  EXPECT_EQ(g.cell_of({95, 95}), (CellId{9, 9}));
  EXPECT_EQ(g.cell_of({15, 85}), (CellId{1, 8}));
}

TEST(GridOverlayTest, CellOfBoundaryConventions) {
  const GridOverlay g(Rect(0, 0, 100, 100), 10, 10);
  // Interior shared edges belong to the upper cell (half-open cells).
  EXPECT_EQ(g.cell_of({10, 5}), (CellId{1, 0}));
  EXPECT_EQ(g.cell_of({5, 10}), (CellId{0, 1}));
  // Universe max boundary folds into the last cell.
  EXPECT_EQ(g.cell_of({100, 100}), (CellId{9, 9}));
  EXPECT_EQ(g.cell_of({0, 0}), (CellId{0, 0}));
  // Outside the universe is a precondition violation.
  EXPECT_THROW(g.cell_of({-0.001, 5}), salarm::PreconditionError);
  EXPECT_THROW(g.cell_of({5, 100.001}), salarm::PreconditionError);
}

TEST(GridOverlayTest, CellRectTilesUniverse) {
  const GridOverlay g(Rect(10, 20, 110, 70), 4, 5);
  double total = 0.0;
  for (std::uint32_t r = 0; r < g.rows(); ++r) {
    for (std::uint32_t c = 0; c < g.cols(); ++c) {
      const Rect cell = g.cell_rect({c, r});
      total += cell.area();
      EXPECT_TRUE(g.universe().contains(cell));
    }
  }
  EXPECT_NEAR(total, g.universe().area(), 1e-9);
  EXPECT_THROW(g.cell_rect({4, 0}), salarm::PreconditionError);
  EXPECT_THROW(g.cell_rect({0, 5}), salarm::PreconditionError);
}

TEST(GridOverlayTest, CellRectContainsMappedPoint) {
  // Cell edges and their one-ulp neighbours are where floor(offset / w) and
  // lo + w * k can disagree; the universe's hi need not equal lo + w * n.
  const std::pair<Rect, double> cases[] = {
      {Rect(0, 0, 32000, 32000), 9e6},
      {Rect(0, 0, 32000, 32000), 3e5},
      {Rect(0, 0, 32000, 32000), 2.5e6},
      {Rect(-500, -200, 1500, 800), 1.7e4},
      {Rect(10.1, 20.3, 1010.7, 770.9), 1234.5},
  };
  for (const auto& [universe, area] : cases) {
    const GridOverlay g = GridOverlay::with_cell_area(universe, area);
    std::vector<double> xs;
    std::vector<double> ys;
    for (std::uint32_t c = 0; c < g.cols(); ++c) {
      const Rect cell = g.cell_rect({c, 0});
      if (c + 1 < g.cols()) {
        EXPECT_EQ(cell.hi().x, g.cell_rect({c + 1, 0}).lo().x);
      }
      for (const double x : {cell.lo().x, cell.hi().x}) {
        xs.insert(xs.end(), {std::nextafter(x, -1e300), x,
                             std::nextafter(x, 1e300)});
      }
    }
    for (std::uint32_t r = 0; r < g.rows(); ++r) {
      const Rect cell = g.cell_rect({0, r});
      if (r + 1 < g.rows()) {
        EXPECT_EQ(cell.hi().y, g.cell_rect({0, r + 1}).lo().y);
      }
      for (const double y : {cell.lo().y, cell.hi().y}) {
        ys.insert(ys.end(), {std::nextafter(y, -1e300), y,
                             std::nextafter(y, 1e300)});
      }
    }
    EXPECT_EQ(g.cell_rect({g.cols() - 1, g.rows() - 1}).hi(), universe.hi());
    EXPECT_EQ(g.cell_rect({0, 0}).lo(), universe.lo());
    std::size_t bad = 0;
    Point first_bad;
    for (const double x : xs) {
      for (const double y : ys) {
        const Point p{x, y};
        if (!universe.contains(p) || g.cell_rect(g.cell_of(p)).contains(p)) {
          continue;
        }
        if (bad++ == 0) first_bad = p;
      }
    }
    EXPECT_EQ(bad, 0u) << "first: (" << first_bad.x << ',' << first_bad.y
                       << ") not in its cell, cell area " << area;
  }
}

TEST(GridOverlayTest, FlatIndexIsBijective) {
  const GridOverlay g(Rect(0, 0, 100, 100), 7, 3);
  std::vector<bool> seen(g.cell_count(), false);
  for (std::uint32_t r = 0; r < g.rows(); ++r) {
    for (std::uint32_t c = 0; c < g.cols(); ++c) {
      const std::size_t idx = g.flat_index({c, r});
      ASSERT_LT(idx, g.cell_count());
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
}

TEST(GridOverlayTest, CellsIntersecting) {
  const GridOverlay g(Rect(0, 0, 100, 100), 10, 10);
  // Window spanning a 2x2 block.
  const auto cells = g.cells_intersecting(Rect(15, 15, 25, 25));
  EXPECT_EQ(cells.size(), 4u);
  // Point-sized window inside one cell.
  EXPECT_EQ(g.cells_intersecting(Rect(5, 5, 5, 5)).size(), 1u);
  // Fully outside.
  EXPECT_TRUE(g.cells_intersecting(Rect(200, 200, 300, 300)).empty());
  // Entire universe.
  EXPECT_EQ(g.cells_intersecting(Rect(-10, -10, 200, 200)).size(), 100u);
}

class GridPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridPropertyTest, EveryPointMapsToContainingCell) {
  salarm::Rng rng(GetParam());
  const Rect universe(-500, -200, 1500, 800);
  const GridOverlay g(universe, 13, 7);
  for (int i = 0; i < 1000; ++i) {
    const Point p{rng.uniform(universe.lo().x, universe.hi().x),
                  rng.uniform(universe.lo().y, universe.hi().y)};
    const CellId id = g.cell_of(p);
    EXPECT_TRUE(g.cell_rect(id).contains(p))
        << "point (" << p.x << ',' << p.y << ") not in its cell";
  }
}

TEST_P(GridPropertyTest, CellsIntersectingAgreesWithGeometry) {
  salarm::Rng rng(GetParam() + 100);
  const Rect universe(0, 0, 1000, 1000);
  const GridOverlay g(universe, 9, 11);
  for (int i = 0; i < 200; ++i) {
    const Rect window =
        Rect::bounding({rng.uniform(-100, 1100), rng.uniform(-100, 1100)},
                       {rng.uniform(-100, 1100), rng.uniform(-100, 1100)});
    const auto cells = g.cells_intersecting(window);
    std::size_t brute = 0;
    for (std::uint32_t r = 0; r < g.rows(); ++r) {
      for (std::uint32_t c = 0; c < g.cols(); ++c) {
        if (g.cell_rect({c, r}).intersects(window)) ++brute;
      }
    }
    EXPECT_EQ(cells.size(), brute);
    for (const CellId id : cells) {
      EXPECT_TRUE(g.cell_rect(id).intersects(window));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridPropertyTest,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace salarm::grid
