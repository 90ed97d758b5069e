#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace salarm::core {
namespace {

ExperimentConfig tiny() {
  ExperimentConfig cfg;
  cfg.universe_km = 4.0;
  cfg.vehicles = 20;
  cfg.minutes = 1.0;
  cfg.alarm_count = 120;
  cfg.seed = 5;
  return cfg;
}

TEST(ExperimentConfigTest, TicksIncludeInitialPositions) {
  ExperimentConfig cfg;
  cfg.minutes = 2.0;
  cfg.tick_seconds = 1.0;
  EXPECT_EQ(cfg.ticks(), 121u);
  cfg.tick_seconds = 0.5;
  EXPECT_EQ(cfg.ticks(), 241u);
}

TEST(ExperimentConfigTest, TicksRejectCountsThatDoNotFit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> kBad[] = {
      {1e300, 1.0},  // SALARM_MINUTES=1e300 passes with_env_overrides
      {2.0, 0.0},
      {2.0, -1.0},
      {2.0, kNaN},
      {2.0, kInf},
      {-1.0, 1.0},
      {kNaN, 1.0},
      {1.0, 1e-300}};
  for (const auto& [minutes, tick_seconds] : kBad) {
    ExperimentConfig cfg;
    cfg.minutes = minutes;
    cfg.tick_seconds = tick_seconds;
    EXPECT_THROW((void)cfg.ticks(), PreconditionError)
        << minutes << " min at " << tick_seconds << " s";
  }
  ExperimentConfig zero;
  zero.minutes = 0.0;
  EXPECT_EQ(zero.ticks(), 1u);
}

TEST(ExperimentConfigTest, EnvOverridesApply) {
  ::setenv("SALARM_VEHICLES", "77", 1);
  ::setenv("SALARM_MINUTES", "3.5", 1);
  ::setenv("SALARM_ALARMS", "999", 1);
  ::setenv("SALARM_SEED", "123", 1);
  const ExperimentConfig cfg = tiny().with_env_overrides();
  EXPECT_EQ(cfg.vehicles, 77u);
  EXPECT_DOUBLE_EQ(cfg.minutes, 3.5);
  EXPECT_EQ(cfg.alarm_count, 999u);
  EXPECT_EQ(cfg.seed, 123u);
  ::unsetenv("SALARM_VEHICLES");
  ::unsetenv("SALARM_MINUTES");
  ::unsetenv("SALARM_ALARMS");
  ::unsetenv("SALARM_SEED");
}

TEST(ExperimentConfigTest, EnvSeedIsReadExactlyAndEmptyIsIgnored) {
  ::setenv("SALARM_SEED", "18446744073709551615", 1);
  ::setenv("SALARM_MINUTES", "0.25", 1);
  ::setenv("SALARM_VEHICLES", "", 1);
  const ExperimentConfig cfg = tiny().with_env_overrides();
  EXPECT_EQ(cfg.seed, 18446744073709551615u);
  EXPECT_DOUBLE_EQ(cfg.minutes, 0.25);
  EXPECT_EQ(cfg.vehicles, tiny().vehicles);
  ::unsetenv("SALARM_SEED");
  ::unsetenv("SALARM_MINUTES");
  ::unsetenv("SALARM_VEHICLES");
}

TEST(ExperimentConfigTest, RejectsMalformedEnvOverrides) {
  const std::pair<const char*, const char*> kMalformed[] = {
      {"SALARM_SEED", "abc"},
      {"SALARM_SEED", "12abc"},
      {"SALARM_SEED", "18446744073709551616"},
      {"SALARM_VEHICLES", "-5"},
      {"SALARM_VEHICLES", "2.5"},
      {"SALARM_ALARMS", "7 "},
      {"SALARM_MINUTES", "inf"},
      {"SALARM_MINUTES", "nan"},
      {"SALARM_MINUTES", "-1"},
      {"SALARM_FULL", "yes"}};
  for (const auto& [name, value] : kMalformed) {
    ::setenv(name, value, 1);
    try {
      (void)tiny().with_env_overrides();
      ADD_FAILURE() << name << '=' << value << " was accepted";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
    ::unsetenv(name);
  }
}

TEST(ExperimentConfigTest, FullScaleSelectsPaperParameters) {
  ::setenv("SALARM_FULL", "1", 1);
  const ExperimentConfig cfg = tiny().with_env_overrides();
  EXPECT_EQ(cfg.vehicles, 10000u);
  EXPECT_DOUBLE_EQ(cfg.minutes, 60.0);
  ::unsetenv("SALARM_FULL");
  const ExperimentConfig plain = tiny().with_env_overrides();
  EXPECT_EQ(plain.vehicles, 20u);
}

TEST(ExperimentTest, BuildsConsistentWorkload) {
  Experiment experiment(tiny());
  EXPECT_EQ(experiment.store().size(), 120u);
  EXPECT_EQ(experiment.network().largest_component_size(),
            experiment.network().node_count());
  EXPECT_TRUE(experiment.grid().universe().contains(
      experiment.network().bounding_box()));
  EXPECT_GT(experiment.max_speed_bound(),
            experiment.network().max_speed_mps());
}

TEST(ExperimentTest, RejectsBadPublicPercent) {
  ExperimentConfig cfg = tiny();
  cfg.public_percent = 150.0;
  EXPECT_THROW(Experiment{cfg}, PreconditionError);
}

TEST(ExperimentTest, OracleIsCachedAndStable) {
  Experiment experiment(tiny());
  const auto& first = experiment.simulation().oracle();
  const auto size = first.size();
  // Running a strategy must not change the oracle.
  (void)experiment.simulation().run(experiment.periodic());
  EXPECT_EQ(experiment.simulation().oracle().size(), size);
}

TEST(ExperimentTest, SameSeedSameWorkload) {
  Experiment a(tiny());
  Experiment b(tiny());
  const auto ra = a.simulation().run(a.periodic());
  const auto rb = b.simulation().run(b.periodic());
  EXPECT_EQ(ra.metrics.triggers, rb.metrics.triggers);
  EXPECT_EQ(ra.metrics.server_alarm_ops, rb.metrics.server_alarm_ops);
}

TEST(ExperimentTest, DifferentSeedDifferentWorkload) {
  ExperimentConfig other = tiny();
  other.seed = 6;
  Experiment a(tiny());
  Experiment b(other);
  const auto ra = a.simulation().run(a.periodic());
  const auto rb = b.simulation().run(b.periodic());
  // Almost surely different trigger counts on different workloads.
  EXPECT_NE(ra.metrics.server_alarm_ops, rb.metrics.server_alarm_ops);
}

}  // namespace
}  // namespace salarm::core
