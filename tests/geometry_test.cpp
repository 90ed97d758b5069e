#include <cmath>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "geometry/point.h"
#include "geometry/rect.h"

namespace salarm::geo {
namespace {

TEST(PointTest, Arithmetic) {
  const Point a{1.0, 2.0};
  const Point b{3.0, -1.0};
  EXPECT_EQ(a + b, (Point{4.0, 1.0}));
  EXPECT_EQ(a - b, (Point{-2.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Point{2.0, 4.0}));
  EXPECT_EQ(2.0 * a, (Point{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
}

TEST(PointTest, DistanceAndNorm) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(squared_distance({0, 0}, {3, 4}), 25.0);
  EXPECT_DOUBLE_EQ(norm({-3, 4}), 5.0);
}

TEST(PointTest, Heading) {
  EXPECT_DOUBLE_EQ(heading({1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(heading({0, 1}), M_PI / 2);
  EXPECT_DOUBLE_EQ(heading({-1, 0}), M_PI);
  EXPECT_DOUBLE_EQ(heading({0, -1}), -M_PI / 2);
  EXPECT_DOUBLE_EQ(heading({0, 0}), 0.0);  // documented convention
}

TEST(PointTest, Lerp) {
  const Point a{0, 0};
  const Point b{10, 20};
  EXPECT_EQ(lerp(a, b, 0.0), a);
  EXPECT_EQ(lerp(a, b, 1.0), b);
  EXPECT_EQ(lerp(a, b, 0.5), (Point{5, 10}));
}

TEST(PointTest, NormalizeAngle) {
  EXPECT_NEAR(normalize_angle(3 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(normalize_angle(-3 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(normalize_angle(M_PI / 4), M_PI / 4, 1e-12);
  EXPECT_NEAR(normalize_angle(-M_PI / 4), -M_PI / 4, 1e-12);
  const double a = normalize_angle(7.5 * M_PI);
  EXPECT_GT(a, -M_PI);
  EXPECT_LE(a, M_PI);
}

TEST(RectTest, ConstructionValidation) {
  EXPECT_NO_THROW(Rect(0, 0, 1, 1));
  EXPECT_NO_THROW(Rect(0, 0, 0, 0));  // degenerate allowed
  EXPECT_THROW(Rect(1, 0, 0, 1), PreconditionError);
  EXPECT_THROW(Rect(0, 1, 1, 0), PreconditionError);
}

TEST(RectTest, BoundingNormalizesCorners) {
  const Rect r = Rect::bounding({5, 1}, {2, 7});
  EXPECT_EQ(r, Rect(2, 1, 5, 7));
}

TEST(RectTest, CenteredSquare) {
  const Rect r = Rect::centered_square({10, 10}, 4.0);
  EXPECT_EQ(r, Rect(8, 8, 12, 12));
  EXPECT_THROW(Rect::centered_square({0, 0}, -1.0), PreconditionError);
}

TEST(RectTest, BasicMeasures) {
  const Rect r(1, 2, 4, 6);
  EXPECT_DOUBLE_EQ(r.width(), 3.0);
  EXPECT_DOUBLE_EQ(r.height(), 4.0);
  EXPECT_DOUBLE_EQ(r.area(), 12.0);
  EXPECT_DOUBLE_EQ(r.perimeter(), 14.0);
  EXPECT_DOUBLE_EQ(r.margin(), 7.0);
  EXPECT_EQ(r.center(), (Point{2.5, 4.0}));
  EXPECT_FALSE(r.degenerate());
  EXPECT_TRUE(Rect(0, 0, 0, 5).degenerate());
}

TEST(RectTest, ClosedVsInteriorPointContainment) {
  const Rect r(0, 0, 10, 10);
  // Interior point: both.
  EXPECT_TRUE(r.contains(Point{5, 5}));
  EXPECT_TRUE(r.interior_contains(Point{5, 5}));
  // Boundary point: closed only.
  EXPECT_TRUE(r.contains(Point{0, 5}));
  EXPECT_FALSE(r.interior_contains(Point{0, 5}));
  EXPECT_TRUE(r.contains(Point{10, 10}));
  EXPECT_FALSE(r.interior_contains(Point{10, 10}));
  // Outside: neither.
  EXPECT_FALSE(r.contains(Point{10.0001, 5}));
  EXPECT_FALSE(r.interior_contains(Point{-1, 5}));
}

TEST(RectTest, RectContainment) {
  const Rect outer(0, 0, 10, 10);
  EXPECT_TRUE(outer.contains(Rect(2, 2, 8, 8)));
  EXPECT_TRUE(outer.contains(outer));  // closed: itself
  EXPECT_FALSE(outer.contains(Rect(2, 2, 11, 8)));
}

TEST(RectTest, ClosedVsInteriorIntersection) {
  const Rect a(0, 0, 10, 10);
  const Rect touching(10, 0, 20, 10);   // share an edge
  const Rect corner(10, 10, 20, 20);    // share a corner
  const Rect overlapping(5, 5, 15, 15);
  const Rect disjoint(11, 0, 20, 10);
  EXPECT_TRUE(a.intersects(touching));
  EXPECT_FALSE(a.interiors_intersect(touching));
  EXPECT_TRUE(a.intersects(corner));
  EXPECT_FALSE(a.interiors_intersect(corner));
  EXPECT_TRUE(a.intersects(overlapping));
  EXPECT_TRUE(a.interiors_intersect(overlapping));
  EXPECT_FALSE(a.intersects(disjoint));
  EXPECT_FALSE(a.interiors_intersect(disjoint));
}

TEST(RectTest, IntersectionGeometry) {
  const Rect a(0, 0, 10, 10);
  const Rect b(5, 5, 15, 15);
  const auto i = a.intersection(b);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(*i, Rect(5, 5, 10, 10));
  // Touching rectangles intersect in a degenerate rect.
  const auto t = a.intersection(Rect(10, 0, 20, 10));
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->degenerate());
  EXPECT_FALSE(a.intersection(Rect(20, 20, 30, 30)).has_value());
}

TEST(RectTest, UnitedCoversBoth) {
  const Rect a(0, 0, 1, 1);
  const Rect b(5, -2, 6, 0.5);
  const Rect u = a.united(b);
  EXPECT_TRUE(u.contains(a));
  EXPECT_TRUE(u.contains(b));
  EXPECT_EQ(u, Rect(0, -2, 6, 1));
  EXPECT_EQ(a.united(Point{-1, 3}), Rect(-1, 0, 1, 3));
}

TEST(RectTest, Expanded) {
  EXPECT_EQ(Rect(0, 0, 10, 10).expanded(2), Rect(-2, -2, 12, 12));
  EXPECT_EQ(Rect(0, 0, 10, 10).expanded(-2), Rect(2, 2, 8, 8));
  EXPECT_THROW(Rect(0, 0, 2, 2).expanded(-2.5), PreconditionError);
}

TEST(RectTest, DistanceToPoint) {
  const Rect r(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(r.distance({5, 5}), 0.0);      // inside
  EXPECT_DOUBLE_EQ(r.distance({0, 0}), 0.0);      // boundary
  EXPECT_DOUBLE_EQ(r.distance({15, 5}), 5.0);     // beside
  EXPECT_DOUBLE_EQ(r.distance({13, 14}), 5.0);    // diagonal (3,4)
  EXPECT_DOUBLE_EQ(r.squared_distance({13, 14}), 25.0);
}

TEST(RectTest, OverlapArea) {
  EXPECT_DOUBLE_EQ(overlap_area(Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)), 25.0);
  EXPECT_DOUBLE_EQ(overlap_area(Rect(0, 0, 10, 10), Rect(10, 0, 20, 10)), 0.0);
  EXPECT_DOUBLE_EQ(overlap_area(Rect(0, 0, 10, 10), Rect(20, 20, 30, 30)), 0.0);
  EXPECT_DOUBLE_EQ(overlap_area(Rect(0, 0, 4, 4), Rect(1, 1, 2, 2)), 1.0);
}

// ---------------------------------------------------------------------------
// Property sweeps over random rectangle pairs.
// ---------------------------------------------------------------------------

class RectPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RectPropertyTest, IntersectionConsistency) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const Rect a = Rect::bounding({rng.uniform(-50, 50), rng.uniform(-50, 50)},
                                  {rng.uniform(-50, 50), rng.uniform(-50, 50)});
    const Rect b = Rect::bounding({rng.uniform(-50, 50), rng.uniform(-50, 50)},
                                  {rng.uniform(-50, 50), rng.uniform(-50, 50)});
    const auto inter = a.intersection(b);
    EXPECT_EQ(inter.has_value(), a.intersects(b));
    if (inter) {
      EXPECT_TRUE(a.contains(*inter));
      EXPECT_TRUE(b.contains(*inter));
      EXPECT_DOUBLE_EQ(inter->area(), overlap_area(a, b));
    }
    // interiors_intersect implies intersects; positive overlap area iff
    // interiors intersect.
    EXPECT_TRUE(!a.interiors_intersect(b) || a.intersects(b));
    EXPECT_EQ(overlap_area(a, b) > 0.0, a.interiors_intersect(b));
    // union contains both, intersection symmetric.
    const Rect u = a.united(b);
    EXPECT_TRUE(u.contains(a) && u.contains(b));
    EXPECT_EQ(a.intersects(b), b.intersects(a));
  }
}

TEST_P(RectPropertyTest, DistanceConsistency) {
  Rng rng(GetParam() * 31 + 1);
  for (int i = 0; i < 500; ++i) {
    const Rect r = Rect::bounding({rng.uniform(-50, 50), rng.uniform(-50, 50)},
                                  {rng.uniform(-50, 50), rng.uniform(-50, 50)});
    const Point p{rng.uniform(-80, 80), rng.uniform(-80, 80)};
    const double d = r.distance(p);
    EXPECT_GE(d, 0.0);
    EXPECT_EQ(d == 0.0, r.contains(p));
    EXPECT_NEAR(d * d, r.squared_distance(p), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace salarm::geo
