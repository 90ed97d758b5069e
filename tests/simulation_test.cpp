// Integration tests: every processing strategy must reproduce the oracle's
// trigger sequence exactly (the paper's 100% accuracy requirement) on a
// real workload, and the comparative metric orderings the paper reports
// must hold.
#include <algorithm>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "sim/cost_model.h"

namespace salarm {
namespace {

core::ExperimentConfig small_config() {
  core::ExperimentConfig cfg;
  cfg.universe_km = 8.0;
  cfg.vehicles = 120;
  cfg.minutes = 4.0;
  cfg.alarm_count = 700;  // keeps the per-km² density near the paper's
  cfg.public_percent = 10.0;
  cfg.grid_cell_sqkm = 2.5;
  cfg.seed = 7;
  return cfg;
}

class StrategyAccuracyTest : public ::testing::Test {
 protected:
  StrategyAccuracyTest() : experiment_(small_config()) {}
  core::Experiment experiment_;
};

void expect_perfect(const sim::RunResult& r) {
  EXPECT_EQ(r.accuracy.missed, 0u) << r.strategy;
  EXPECT_EQ(r.accuracy.spurious, 0u) << r.strategy;
  EXPECT_EQ(r.accuracy.late, 0u) << r.strategy;
  EXPECT_GT(r.accuracy.expected, 0u) << "workload produced no triggers";
  EXPECT_EQ(r.metrics.triggers, r.accuracy.expected) << r.strategy;
}

TEST_F(StrategyAccuracyTest, PeriodicIsPerfect) {
  expect_perfect(experiment_.simulation().run(experiment_.periodic()));
}

TEST_F(StrategyAccuracyTest, SafePeriodIsPerfect) {
  expect_perfect(experiment_.simulation().run(experiment_.safe_period()));
}

TEST_F(StrategyAccuracyTest, WeightedRectIsPerfect) {
  expect_perfect(experiment_.simulation().run(
      experiment_.rect(saferegion::MotionModel(1.0, 32))));
}

TEST_F(StrategyAccuracyTest, NonWeightedRectIsPerfect) {
  saferegion::MwpsrOptions opts;
  opts.weighted = false;
  expect_perfect(experiment_.simulation().run(
      experiment_.rect(saferegion::MotionModel::uniform(), opts)));
}

TEST_F(StrategyAccuracyTest, GbsrIsPerfect) {
  saferegion::PyramidConfig cfg;
  cfg.height = 1;
  expect_perfect(experiment_.simulation().run(experiment_.bitmap(cfg)));
}

TEST_F(StrategyAccuracyTest, PbsrIsPerfect) {
  saferegion::PyramidConfig cfg;
  cfg.height = 5;
  expect_perfect(experiment_.simulation().run(experiment_.bitmap(cfg)));
}

TEST_F(StrategyAccuracyTest, OptimalIsPerfect) {
  expect_perfect(experiment_.simulation().run(experiment_.optimal()));
}

TEST_F(StrategyAccuracyTest, ExhaustiveRectIsPerfect) {
  saferegion::MwpsrOptions opts;
  opts.assembly = saferegion::MwpsrAssembly::kExhaustive;
  expect_perfect(experiment_.simulation().run(
      experiment_.rect(saferegion::MotionModel(1.0, 8), opts)));
}

// ---------------------------------------------------------------------------
// Comparative orderings from the paper's evaluation.
// ---------------------------------------------------------------------------

class StrategyComparisonTest : public ::testing::Test {
 protected:
  StrategyComparisonTest() : experiment_(small_config()) {
    prd_ = experiment_.simulation().run(experiment_.periodic());
    sp_ = experiment_.simulation().run(experiment_.safe_period());
    mwpsr_ = experiment_.simulation().run(
        experiment_.rect(saferegion::MotionModel(1.0, 32)));
    saferegion::PyramidConfig pyramid;
    pyramid.height = 5;
    pbsr_ = experiment_.simulation().run(experiment_.bitmap(pyramid));
    opt_ = experiment_.simulation().run(experiment_.optimal());
  }

  core::Experiment experiment_;
  sim::RunResult prd_, sp_, mwpsr_, pbsr_, opt_;
};

TEST_F(StrategyComparisonTest, PeriodicSendsEverySample) {
  const auto expected = static_cast<std::uint64_t>(
      experiment_.config().vehicles * experiment_.simulation().ticks());
  EXPECT_EQ(prd_.metrics.uplink_messages, expected);
}

TEST_F(StrategyComparisonTest, MessageOrderingMatchesFigure6a) {
  // OPT <= safe-region approaches < SP << PRD.
  EXPECT_LT(opt_.metrics.uplink_messages, sp_.metrics.uplink_messages);
  EXPECT_LT(mwpsr_.metrics.uplink_messages, sp_.metrics.uplink_messages);
  EXPECT_LT(pbsr_.metrics.uplink_messages, sp_.metrics.uplink_messages);
  EXPECT_LT(sp_.metrics.uplink_messages, prd_.metrics.uplink_messages);
  // Safe region approaches use a small fraction of the PRD firehose
  // (the paper reports <3%; allow slack at this reduced scale).
  EXPECT_LT(mwpsr_.metrics.uplink_messages,
            prd_.metrics.uplink_messages / 10);
}

TEST_F(StrategyComparisonTest, ClientEnergyOrderingMatchesFigure6c) {
  const sim::CostModel cost;
  EXPECT_LT(cost.client_energy_mwh(mwpsr_.metrics),
            cost.client_energy_mwh(opt_.metrics));
  EXPECT_LT(cost.client_energy_mwh(pbsr_.metrics),
            cost.client_energy_mwh(opt_.metrics));
}

TEST_F(StrategyComparisonTest, ServerLoadOrderingMatchesFigure6d) {
  const sim::CostModel cost;
  EXPECT_LT(cost.server_total_minutes(mwpsr_.metrics),
            cost.server_total_minutes(prd_.metrics));
  EXPECT_LT(cost.server_total_minutes(pbsr_.metrics),
            cost.server_total_minutes(prd_.metrics));
  EXPECT_LT(cost.server_total_minutes(mwpsr_.metrics),
            cost.server_total_minutes(sp_.metrics));
  // PRD does no safe-region computation at all.
  EXPECT_EQ(prd_.metrics.server_region_ops, 0u);
}

TEST_F(StrategyComparisonTest, DownstreamBandwidthOrderingMatchesFigure6b) {
  // Safe-region approaches ship far less than OPT's full alarm pushes.
  EXPECT_LT(pbsr_.metrics.downstream_region_bytes,
            opt_.metrics.downstream_region_bytes);
  EXPECT_LT(mwpsr_.metrics.downstream_region_bytes,
            opt_.metrics.downstream_region_bytes);
}

TEST_F(StrategyComparisonTest, RunsAreReproducible) {
  const auto again = experiment_.simulation().run(
      experiment_.rect(saferegion::MotionModel(1.0, 32)));
  EXPECT_EQ(again.metrics.uplink_messages, mwpsr_.metrics.uplink_messages);
  EXPECT_EQ(again.metrics.server_alarm_ops, mwpsr_.metrics.server_alarm_ops);
  EXPECT_EQ(again.metrics.downstream_region_bytes,
            mwpsr_.metrics.downstream_region_bytes);
  EXPECT_EQ(again.metrics.triggers, mwpsr_.metrics.triggers);
}

TEST_F(StrategyComparisonTest, AllStrategiesTriggerTheSameEvents) {
  EXPECT_EQ(prd_.metrics.triggers, opt_.metrics.triggers);
  EXPECT_EQ(sp_.metrics.triggers, opt_.metrics.triggers);
  EXPECT_EQ(mwpsr_.metrics.triggers, opt_.metrics.triggers);
  EXPECT_EQ(pbsr_.metrics.triggers, opt_.metrics.triggers);
}

// ---------------------------------------------------------------------------
// Parameter trends within a strategy family.
// ---------------------------------------------------------------------------

TEST(StrategyTrendTest, DeeperPyramidsSendFewerMessages) {
  core::ExperimentConfig cfg = small_config();
  cfg.public_percent = 20.0;  // density high enough for GBSR to hurt
  core::Experiment experiment(cfg);
  saferegion::PyramidConfig p1;
  p1.height = 1;
  const auto gbsr = experiment.simulation().run(experiment.bitmap(p1));
  saferegion::PyramidConfig p5;
  p5.height = 5;
  const auto pbsr = experiment.simulation().run(experiment.bitmap(p5));
  EXPECT_LT(pbsr.metrics.uplink_messages, gbsr.metrics.uplink_messages);
  // Deeper pyramids also refine coverage, costing more client ops/check.
  EXPECT_GT(static_cast<double>(pbsr.metrics.client_check_ops) /
                static_cast<double>(pbsr.metrics.client_checks),
            0.99 * static_cast<double>(gbsr.metrics.client_check_ops) /
                static_cast<double>(gbsr.metrics.client_checks));
}

TEST(StrategyTrendTest, LargerCellsMeanFewerMessagesForRect) {
  core::ExperimentConfig small_cells = small_config();
  small_cells.grid_cell_sqkm = 0.4;
  core::ExperimentConfig large_cells = small_config();
  large_cells.grid_cell_sqkm = 10.0;
  core::Experiment a(small_cells);
  core::Experiment b(large_cells);
  const auto model = saferegion::MotionModel(1.0, 32);
  const auto small_run = a.simulation().run(a.rect(model));
  const auto large_run = b.simulation().run(b.rect(model));
  EXPECT_LT(large_run.metrics.uplink_messages,
            small_run.metrics.uplink_messages);
}

TEST(StrategyTrendTest, DownstreamLossNeverCostsAccuracy) {
  core::Experiment experiment(small_config());
  const saferegion::MotionModel model(1.0, 32);
  const auto clean = experiment.simulation().run(experiment.rect(model));

  net::ChannelConfig lossy_channel;
  lossy_channel.downlink_loss = 0.4;
  experiment.enable_channel(lossy_channel);
  const auto lossy = experiment.simulation().run(experiment.rect(model));
  EXPECT_EQ(lossy.accuracy.missed, 0u);
  EXPECT_EQ(lossy.accuracy.late, 0u);
  EXPECT_GT(lossy.metrics.uplink_messages, clean.metrics.uplink_messages);

  saferegion::PyramidConfig pyramid;
  pyramid.height = 4;
  const auto lossy_bitmap =
      experiment.simulation().run(experiment.bitmap(pyramid));
  EXPECT_EQ(lossy_bitmap.accuracy.missed, 0u);
  EXPECT_EQ(lossy_bitmap.accuracy.late, 0u);
}

TEST(StrategyTrendTest, PublicBitmapCacheKeepsAccuracyAndCutsOps) {
  core::ExperimentConfig cfg = small_config();
  cfg.public_percent = 20.0;  // make the shared public work dominant
  core::Experiment experiment(cfg);
  saferegion::PyramidConfig pyramid;
  pyramid.height = 5;
  const auto plain = experiment.simulation().run(experiment.bitmap(pyramid));
  const auto cached =
      experiment.simulation().run(experiment.bitmap_cached(pyramid));
  EXPECT_EQ(cached.accuracy.missed, 0u);
  EXPECT_EQ(cached.accuracy.late, 0u);
  EXPECT_EQ(cached.accuracy.spurious, 0u);
  EXPECT_EQ(cached.metrics.triggers, plain.metrics.triggers);
  // The shared public bitmap is built once per cell instead of once per
  // recompute: substantially fewer safe-region ops.
  EXPECT_LT(cached.metrics.server_region_ops,
            plain.metrics.server_region_ops);
}

TEST(StrategyTrendTest, MorePublicAlarmsMeansMoreWork) {
  core::ExperimentConfig low = small_config();
  low.public_percent = 1.0;
  core::ExperimentConfig high = small_config();
  high.public_percent = 20.0;
  core::Experiment a(low);
  core::Experiment b(high);
  saferegion::PyramidConfig pyramid;
  pyramid.height = 5;
  const auto low_run = a.simulation().run(a.bitmap(pyramid));
  const auto high_run = b.simulation().run(b.bitmap(pyramid));
  EXPECT_LT(low_run.metrics.uplink_messages,
            high_run.metrics.uplink_messages);
  EXPECT_LT(low_run.metrics.triggers, high_run.metrics.triggers);
}

// ---------------------------------------------------------------------------
// Cluster determinism: a sharded run is bit-identical for any thread count.
// The fan-out groups subscribers by owning shard in stable order and merges
// per-shard results in stable shard order, so nothing — not even the
// floating-point payload statistics — may depend on scheduling.
// ---------------------------------------------------------------------------

void expect_bit_identical(const sim::RunResult& a, const sim::RunResult& b) {
  EXPECT_EQ(b.trigger_log, a.trigger_log);
  EXPECT_EQ(b.metrics, a.metrics);
}

class ShardedDeterminismTest : public ::testing::Test {
 protected:
  ShardedDeterminismTest() : experiment_(small_config()) {}

  void check(const sim::Simulation::StrategyFactory& factory) {
    const auto ref = experiment_.simulation().run_sharded(
        factory, {.shards = 4, .threads = 1});
    expect_perfect(ref);
    const std::size_t hw = std::max<std::size_t>(
        2, std::thread::hardware_concurrency());
    for (const std::size_t threads : {std::size_t{2}, hw}) {
      expect_bit_identical(ref, experiment_.simulation().run_sharded(
                                    factory, {.shards = 4,
                                              .threads = threads}));
    }
  }

  core::Experiment experiment_;
};

TEST_F(ShardedDeterminismTest, MwpsrBitIdenticalAcrossThreadCounts) {
  check(experiment_.rect(saferegion::MotionModel(1.0, 32)));
}

TEST_F(ShardedDeterminismTest, SafePeriodBitIdenticalAcrossThreadCounts) {
  check(experiment_.safe_period());
}

TEST_F(ShardedDeterminismTest, PbsrBitIdenticalAcrossThreadCounts) {
  saferegion::PyramidConfig pyramid;
  pyramid.height = 5;
  check(experiment_.bitmap(pyramid));
}

}  // namespace
}  // namespace salarm
