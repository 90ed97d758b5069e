#include <cmath>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "geometry/rect.h"
#include "saferegion/motion_model.h"
#include "saferegion/mwpsr.h"

namespace salarm::saferegion {
namespace {

using geo::Point;
using geo::Rect;

const Rect kCell(0, 0, 1000, 1000);
const Point kCenter{500, 500};

MotionModel uniform() { return MotionModel::uniform(); }

TEST(WeightedPerimeterTest, UniformEqualsPerimeter) {
  const Rect r(100, 200, 400, 450);
  const QuadrantWeights quarters{{0.25, 0.25, 0.25, 0.25}};
  EXPECT_NEAR(weighted_perimeter(r, {200, 300}, quarters), r.perimeter(),
              1e-9);
  EXPECT_THROW(weighted_perimeter(r, {0, 0}, quarters),
               salarm::PreconditionError);
}

TEST(WeightedPerimeterTest, WeightsStretchTheObjective) {
  // All mass on quadrant I: only +x/+y extents count.
  const QuadrantWeights east_north{{1.0, 0.0, 0.0, 0.0}};
  const Rect r(0, 0, 10, 10);
  EXPECT_NEAR(weighted_perimeter(r, {2, 2}, east_north), 4.0 * (8 + 8), 1e-9);
}

TEST(MwpsrTest, RequiresPositionInCell) {
  EXPECT_THROW(
      compute_mwpsr({-1, 500}, 0.0, kCell, {}, uniform()),
      salarm::PreconditionError);
}

TEST(MwpsrTest, NoAlarmsYieldsWholeCell) {
  const auto r = compute_mwpsr(kCenter, 0.0, kCell, {}, uniform());
  EXPECT_EQ(r.rect, kCell);
  EXPECT_FALSE(r.inside_alarm);
}

TEST(MwpsrTest, PositionInsideAlarmReturnsIntersection) {
  const std::vector<Rect> alarms{Rect(400, 400, 700, 700),
                                 Rect(450, 300, 800, 650)};
  const auto r = compute_mwpsr(kCenter, 0.0, kCell, alarms, uniform());
  EXPECT_TRUE(r.inside_alarm);
  EXPECT_EQ(r.rect, Rect(450, 400, 700, 650));
}

TEST(MwpsrTest, SingleAlarmInQuadrantI) {
  // Alarm northeast of the subscriber; the region must stop at the alarm
  // in at least one axis while stretching fully elsewhere.
  const std::vector<Rect> alarms{Rect(700, 700, 800, 800)};
  const auto r = compute_mwpsr(kCenter, 0.0, kCell, alarms, uniform());
  EXPECT_FALSE(r.inside_alarm);
  EXPECT_TRUE(r.rect.contains(kCenter));
  EXPECT_TRUE(kCell.contains(r.rect));
  EXPECT_FALSE(r.rect.interiors_intersect(alarms[0]));
  // Optimal here: give up either the x-range beyond 700 or the y-range
  // beyond 700; both choices yield perimeter 2*(1000 + 700 + 500) hmm —
  // either way the rect must reach the three unconstrained cell borders.
  EXPECT_DOUBLE_EQ(r.rect.lo().x, 0.0);
  EXPECT_DOUBLE_EQ(r.rect.lo().y, 0.0);
  EXPECT_TRUE(r.rect.hi().x == 1000.0 || r.rect.hi().y == 1000.0);
}

TEST(MwpsrTest, AlarmStraddlingAxisBlocksBothQuadrants) {
  // Alarm spanning the +x axis east of the subscriber: any safe rectangle
  // with positive height must stop before the alarm's west edge.
  const std::vector<Rect> alarms{Rect(700, 400, 800, 600)};
  const auto r = compute_mwpsr(kCenter, 0.0, kCell, alarms, uniform());
  EXPECT_FALSE(r.rect.interiors_intersect(alarms[0]));
  EXPECT_TRUE(r.rect.contains(kCenter));
  // Height is positive (the cell is wide open north/south), so the east
  // edge must stop at 700.
  EXPECT_GT(r.rect.height(), 0.0);
  EXPECT_LE(r.rect.hi().x, 700.0 + 1e-9);
}

TEST(MwpsrTest, OverlappingAlarmsHandled) {
  // Two overlapping alarm regions (the case [10] cannot handle).
  const std::vector<Rect> alarms{Rect(600, 600, 800, 800),
                                 Rect(550, 650, 700, 900)};
  const auto r = compute_mwpsr(kCenter, 0.0, kCell, alarms, uniform());
  EXPECT_FALSE(r.inside_alarm);
  for (const Rect& a : alarms) {
    EXPECT_FALSE(r.rect.interiors_intersect(a));
  }
  EXPECT_TRUE(r.rect.contains(kCenter));
}

TEST(MwpsrTest, WeightedStretchesTowardHeading) {
  // Alarms at symmetric positions east and north; heading east should
  // prefer keeping the eastward extent.
  const std::vector<Rect> alarms{Rect(800, 420, 900, 580),   // east
                                 Rect(420, 800, 580, 900)};  // north
  const MotionModel steady(1.0, 2);
  const auto east = compute_mwpsr(kCenter, 0.0, kCell, alarms, steady);
  const auto north =
      compute_mwpsr(kCenter, M_PI / 2, kCell, alarms, steady);
  const double east_extent_when_east = east.rect.hi().x - kCenter.x;
  const double east_extent_when_north = north.rect.hi().x - kCenter.x;
  const double north_extent_when_east = east.rect.hi().y - kCenter.y;
  const double north_extent_when_north = north.rect.hi().y - kCenter.y;
  EXPECT_GE(east_extent_when_east, east_extent_when_north);
  EXPECT_GE(north_extent_when_north, north_extent_when_east);
}

TEST(MwpsrTest, NonWeightedIgnoresHeading) {
  const std::vector<Rect> alarms{Rect(800, 420, 900, 580),
                                 Rect(420, 800, 580, 900)};
  MwpsrOptions opts;
  opts.weighted = false;
  const MotionModel steady(1.0, 2);
  const auto a = compute_mwpsr(kCenter, 0.0, kCell, alarms, steady, opts);
  const auto b =
      compute_mwpsr(kCenter, M_PI / 2, kCell, alarms, steady, opts);
  EXPECT_EQ(a.rect, b.rect);
}

TEST(MwpsrTest, DegenerateAtCellBorder) {
  // Subscriber exactly on the cell's east border.
  const Point p{1000, 500};
  const auto r = compute_mwpsr(p, 0.0, kCell, {}, uniform());
  EXPECT_TRUE(r.rect.contains(p));
  EXPECT_DOUBLE_EQ(r.rect.hi().x, 1000.0);
}

TEST(MwpsrTest, PositionOnAlarmCornerIsNotInside) {
  // Alarm whose corner touches the position: under open-interior trigger
  // semantics the alarm has not fired, and the safe region may share its
  // boundary but not its interior.
  const std::vector<Rect> alarms{Rect(500, 500, 600, 600)};
  const auto r = compute_mwpsr(kCenter, 0.0, kCell, alarms, uniform());
  EXPECT_FALSE(r.inside_alarm);
  EXPECT_TRUE(r.rect.contains(kCenter));
  EXPECT_LE(geo::overlap_area(r.rect, alarms[0]), 1e-9);
}

TEST(MwpsrTest, PositionStrictlyInsideAlarmUsesDefinitionTwo) {
  const std::vector<Rect> alarms{Rect(400, 400, 700, 700)};
  const auto r = compute_mwpsr(kCenter, 0.0, kCell, alarms, uniform());
  EXPECT_TRUE(r.inside_alarm);
  EXPECT_EQ(r.rect, alarms[0]);
}

TEST(MwpsrTest, AutoAssemblyAvoidsNeedleCollapse) {
  // A thin alarm just south of the position spanning its x: the greedy
  // order can collapse the region to a zero-width needle while a wide
  // strip with a slightly larger perimeter exists. kAuto must find the
  // strip.
  const Rect cell(1600, 6400, 3200, 8000);
  const Point p{1843.0, 8000.0};  // riding the cell's top edge
  const std::vector<Rect> alarms{Rect(1700, 7850, 2100, 7950)};
  const auto r = compute_mwpsr(p, M_PI, cell, alarms, uniform());
  EXPECT_TRUE(r.rect.contains(p));
  EXPECT_GT(r.rect.width(), 100.0);  // not a needle
  EXPECT_LE(geo::overlap_area(r.rect, alarms[0]), 1e-9);
}

// ---------------------------------------------------------------------------
// Property sweep: soundness on random workloads, and greedy vs exhaustive.
// ---------------------------------------------------------------------------

// gtest names each case by its parameter's bytes, so the struct has no
// padding: padding bytes print whatever the build left in them, and the
// same case would get a different name in another build.
struct MwpsrSweep {
  std::uint64_t seed;
  int alarm_count;
  bool weighted;
  char zero[3] = {};
};
static_assert(std::has_unique_object_representations_v<MwpsrSweep>);

class MwpsrPropertyTest : public ::testing::TestWithParam<MwpsrSweep> {};

std::vector<Rect> random_alarms(Rng& rng, int n, const Rect& cell) {
  std::vector<Rect> out;
  for (int i = 0; i < n; ++i) {
    const Point c{rng.uniform(cell.lo().x - 100, cell.hi().x + 100),
                  rng.uniform(cell.lo().y - 100, cell.hi().y + 100)};
    const Rect a = Rect::centered_square(c, rng.uniform(20, 300));
    if (a.intersects(cell)) out.push_back(a);
  }
  return out;
}

TEST_P(MwpsrPropertyTest, SafeRegionIsSound) {
  const auto param = GetParam();
  Rng rng(param.seed);
  const MotionModel model(1.0, 8);
  for (int round = 0; round < 100; ++round) {
    const auto alarms = random_alarms(rng, param.alarm_count, kCell);
    const Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const double heading = rng.uniform(-M_PI, M_PI);
    MwpsrOptions opts;
    opts.weighted = param.weighted;
    const auto r = compute_mwpsr(p, heading, kCell, alarms, model, opts);
    EXPECT_TRUE(r.rect.contains(p));
    EXPECT_TRUE(kCell.contains(r.rect));
    if (!r.inside_alarm) {
      for (const Rect& a : alarms) {
        // A degenerate (zero-area) safe region has an empty interior and
        // cannot overlap anything; overlap area (up to floating-point
        // epsilon on edges computed via relative extents) is the right
        // test.
        EXPECT_LE(geo::overlap_area(r.rect, a), 1e-9)
            << "round " << round << " alarm " << a.to_string()
            << " region " << r.rect.to_string();
      }
    }
    EXPECT_GT(r.ops, 0u);
  }
}

TEST_P(MwpsrPropertyTest, GreedyNeverBeatsExhaustive) {
  const auto param = GetParam();
  Rng rng(param.seed + 77);
  const MotionModel model(1.0, 4);
  for (int round = 0; round < 40; ++round) {
    const auto alarms =
        random_alarms(rng, std::min(param.alarm_count, 6), kCell);
    const Point p{rng.uniform(100, 900), rng.uniform(100, 900)};
    const double heading = rng.uniform(-M_PI, M_PI);
    MwpsrOptions greedy;
    greedy.weighted = param.weighted;
    greedy.assembly = MwpsrAssembly::kGreedy;
    greedy.area_tiebreak_epsilon = 0.0;  // pure paper objective
    MwpsrOptions exhaustive = greedy;
    exhaustive.assembly = MwpsrAssembly::kExhaustive;
    const auto g = compute_mwpsr(p, heading, kCell, alarms, model, greedy);
    const auto e =
        compute_mwpsr(p, heading, kCell, alarms, model, exhaustive);
    if (g.inside_alarm) continue;
    const QuadrantWeights w = param.weighted
                                  ? model.quadrant_weights(heading)
                                  : QuadrantWeights{{0.25, 0.25, 0.25, 0.25}};
    EXPECT_LE(weighted_perimeter(g.rect, p, w),
              weighted_perimeter(e.rect, p, w) + 1e-9);
    // Exhaustive must also be sound.
    for (const Rect& a : alarms) {
      EXPECT_LE(geo::overlap_area(e.rect, a), 1e-9);
    }
  }
}

TEST_P(MwpsrPropertyTest, PruningDoesNotChangeResult) {
  const auto param = GetParam();
  Rng rng(param.seed + 154);
  const MotionModel model(1.0, 16);
  for (int round = 0; round < 50; ++round) {
    const auto alarms = random_alarms(rng, param.alarm_count, kCell);
    const Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const double heading = rng.uniform(-M_PI, M_PI);
    MwpsrOptions pruned;
    pruned.weighted = param.weighted;
    pruned.assembly = MwpsrAssembly::kExhaustive;
    pruned.area_tiebreak_epsilon = 0.0;  // exact argmax comparison
    MwpsrOptions unpruned = pruned;
    unpruned.prune_dominated = false;
    const auto a = compute_mwpsr(p, heading, kCell, alarms, model, pruned);
    const auto b = compute_mwpsr(p, heading, kCell, alarms, model, unpruned);
    EXPECT_EQ(a.rect, b.rect);
    EXPECT_LE(a.ops, b.ops);  // pruning can only reduce work downstream
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, MwpsrPropertyTest,
    ::testing::Values(MwpsrSweep{1, 3, true}, MwpsrSweep{2, 10, true},
                      MwpsrSweep{3, 30, true}, MwpsrSweep{4, 10, false},
                      MwpsrSweep{5, 30, false}, MwpsrSweep{6, 80, true}));

}  // namespace
}  // namespace salarm::saferegion
