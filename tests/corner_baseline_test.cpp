// Tests for the Hu et al. [10]-style corner-candidate baseline (bench
// code, see bench/corner_baseline.h) — including the *negative* results the
// paper claims: unsound regions when alarms overlap or straddle the axes
// through the subscriber position, and missed triggers on a real workload.
#include <gtest/gtest.h>

#include "bench/corner_baseline.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "saferegion/mwpsr.h"

namespace salarm::saferegion {
namespace {

using bench::compute_corner_baseline;
using geo::Point;
using geo::Rect;

const Rect kCell(0, 0, 1000, 1000);
const Point kCenter{500, 500};

TEST(CornerBaselineTest, MatchesMwpsrOnSimpleQuadrantAlarms) {
  // One alarm cleanly inside a quadrant: both algorithms must produce a
  // sound region containing the position.
  const std::vector<Rect> alarms{Rect(700, 700, 800, 800)};
  const MotionModel model(1.0, 32);
  const auto baseline =
      compute_corner_baseline(kCenter, 0.0, kCell, alarms, model);
  EXPECT_TRUE(baseline.rect.contains(kCenter));
  EXPECT_TRUE(kCell.contains(baseline.rect));
  EXPECT_LE(geo::overlap_area(baseline.rect, alarms[0]), 1e-9);
}

TEST(CornerBaselineTest, AxisStraddlingAlarmProducesUnsoundRegion) {
  // The paper's claim: an alarm straddling the +x axis is mishandled. The
  // alarm (300,450)-(400,900) seen from (100,500) has nearest corner
  // (300,450), which lands in quadrant IV and constrains only y-below;
  // quadrant I never learns about the alarm, the optimizer keeps the full
  // eastward extent by capping y-below, and the "safe" region stretches
  // east across the alarm's interior.
  const Point p{100, 500};
  const std::vector<Rect> alarms{Rect(300, 450, 400, 900)};
  const MotionModel model(1.0, 32);
  const auto baseline = compute_corner_baseline(p, 0.0, kCell, alarms, model);
  EXPECT_GT(geo::overlap_area(baseline.rect, alarms[0]), 0.0)
      << "expected the documented unsoundness";
  // MWPSR handles the same input correctly.
  const auto sound = compute_mwpsr(p, 0.0, kCell, alarms, model);
  EXPECT_LE(geo::overlap_area(sound.rect, alarms[0]), 1e-9);
}

TEST(CornerBaselineTest, UnsoundnessRateOnRandomWorkloads) {
  // Quantify the failure: across random cells, the baseline overlaps an
  // alarm interior in a meaningful fraction of cases; MWPSR never does.
  Rng rng(77);
  const MotionModel model(1.0, 32);
  int baseline_unsound = 0;
  int mwpsr_unsound = 0;
  const int rounds = 300;
  for (int round = 0; round < rounds; ++round) {
    std::vector<Rect> alarms;
    const int n = 2 + static_cast<int>(rng.index(8));
    for (int i = 0; i < n; ++i) {
      const Point c{rng.uniform(-100, 1100), rng.uniform(-100, 1100)};
      alarms.push_back(Rect::centered_square(c, rng.uniform(50, 400)));
    }
    Point p;
    do {
      p = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
    } while ([&] {
      for (const Rect& a : alarms) {
        if (a.interior_contains(p)) return true;
      }
      return false;
    }());
    const double heading = rng.uniform(-M_PI, M_PI);
    const auto base = compute_corner_baseline(p, heading, kCell, alarms,
                                              model);
    const auto sound = compute_mwpsr(p, heading, kCell, alarms, model);
    auto overlaps = [&](const Rect& r) {
      for (const Rect& a : alarms) {
        if (geo::overlap_area(r, a) > 1e-9) return true;
      }
      return false;
    };
    baseline_unsound += overlaps(base.rect) ? 1 : 0;
    mwpsr_unsound += sound.inside_alarm ? 0 : (overlaps(sound.rect) ? 1 : 0);
  }
  EXPECT_EQ(mwpsr_unsound, 0);
  EXPECT_GT(baseline_unsound, rounds / 20)
      << "the baseline should fail noticeably often on dense workloads";
}

TEST(CornerBaselineTest, RegionAlwaysContainsPositionAndFitsCell) {
  Rng rng(78);
  const MotionModel model(1.0, 8);
  for (int round = 0; round < 200; ++round) {
    std::vector<Rect> alarms;
    for (int i = 0; i < 5; ++i) {
      const Point c{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      alarms.push_back(Rect::centered_square(c, rng.uniform(50, 300)));
    }
    const Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const auto r = compute_corner_baseline(p, 0.0, kCell, alarms, model);
    EXPECT_TRUE(r.rect.contains(p));
    EXPECT_TRUE(kCell.contains(r.rect));
    EXPECT_GT(r.ops, 0u);
  }
}

TEST(StrategyTrendTest, CornerBaselineMissesTriggers) {
  // The paper's claim about [10], at integration level: the corner
  // baseline loses alarms on a real workload.
  core::ExperimentConfig cfg;
  cfg.universe_km = 8.0;
  cfg.vehicles = 120;
  cfg.minutes = 4.0;
  cfg.alarm_count = 700;
  cfg.public_percent = 10.0;
  cfg.grid_cell_sqkm = 2.5;
  cfg.seed = 7;
  core::Experiment experiment(cfg);
  const auto run = experiment.simulation().run(
      bench::corner_baseline(MotionModel(1.0, 32)));
  EXPECT_EQ(run.strategy, "RECT[10]");
  EXPECT_GT(run.accuracy.missed + run.accuracy.late, 0u);
}

}  // namespace
}  // namespace salarm::saferegion
