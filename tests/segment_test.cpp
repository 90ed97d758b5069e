#include <gtest/gtest.h>

#include "bench/segment.h"
#include "common/rng.h"

namespace salarm::geo {
namespace {

const Rect kRect(0, 0, 10, 10);

TEST(ClipSegmentTest, FullyInside) {
  const auto c = clip_segment({2, 2}, {8, 8}, kRect);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->first, 0.0);
  EXPECT_DOUBLE_EQ(c->second, 1.0);
}

TEST(ClipSegmentTest, CrossingThrough) {
  const auto c = clip_segment({-10, 5}, {30, 5}, kRect);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->first, 0.25);   // enters at x=0
  EXPECT_DOUBLE_EQ(c->second, 0.5);   // exits at x=10
}

TEST(ClipSegmentTest, Miss) {
  EXPECT_FALSE(clip_segment({-5, 20}, {15, 20}, kRect).has_value());
  EXPECT_FALSE(clip_segment({-5, -5}, {-1, 9}, kRect).has_value());
}

TEST(ClipSegmentTest, VerticalAndHorizontal) {
  const auto v = clip_segment({5, -10}, {5, 20}, kRect);
  ASSERT_TRUE(v.has_value());
  EXPECT_NEAR(v->first, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(v->second, 2.0 / 3.0, 1e-12);
  // Axis-parallel line outside the slab.
  EXPECT_FALSE(clip_segment({20, -10}, {20, 20}, kRect).has_value());
}

TEST(SegmentInteriorTest, CornerCutting) {
  // Both endpoints outside, the chord clips the corner.
  EXPECT_TRUE(segment_intersects_interior({-2, 6}, {8, 16}, kRect));
  // The chord exactly through the corner point (0,10): a touch, not an
  // interior crossing.
  EXPECT_FALSE(segment_intersects_interior({-5, 5}, {5, 15}, kRect));
}

TEST(SegmentInteriorTest, EdgeRiding) {
  // A segment running exactly along the boundary never enters the
  // interior.
  EXPECT_FALSE(segment_intersects_interior({0, 2}, {0, 8}, kRect));
  EXPECT_FALSE(segment_intersects_interior({-5, 10}, {15, 10}, kRect));
}

TEST(SegmentInteriorTest, EndpointsAndDegenerate) {
  EXPECT_TRUE(segment_intersects_interior({5, 5}, {5, 5}, kRect));
  EXPECT_FALSE(segment_intersects_interior({0, 0}, {0, 0}, kRect));
  EXPECT_TRUE(segment_intersects_interior({5, 5}, {20, 5}, kRect));
  EXPECT_FALSE(
      segment_intersects_interior({1, 1}, {2, 2}, Rect(0, 5, 0, 8)));
}

TEST(SegmentInteriorTest, AgreesWithDenseSampling) {
  // Property: the analytic answer matches dense sampling of the segment.
  Rng rng(5);
  for (int round = 0; round < 500; ++round) {
    const Rect r = Rect::bounding({rng.uniform(0, 50), rng.uniform(0, 50)},
                                  {rng.uniform(0, 50), rng.uniform(0, 50)});
    const Point a{rng.uniform(-20, 70), rng.uniform(-20, 70)};
    const Point b{rng.uniform(-20, 70), rng.uniform(-20, 70)};
    bool sampled = false;
    for (int i = 0; i <= 2000; ++i) {
      if (r.interior_contains(lerp(a, b, i / 2000.0))) {
        sampled = true;
        break;
      }
    }
    const bool analytic = segment_intersects_interior(a, b, r);
    // Dense sampling can miss razor-thin clips but never false-positives.
    if (sampled) {
      EXPECT_TRUE(analytic) << "round " << round;
    }
    if (!analytic) {
      EXPECT_FALSE(sampled) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace salarm::geo
