#include "core/experiment.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

#include "common/error.h"
#include "common/units.h"
#include "strategies/bitmap_region_strategy.h"
#include "strategies/optimal.h"
#include "strategies/periodic.h"
#include "strategies/rect_region_strategy.h"
#include "strategies/safe_period.h"

namespace salarm::core {

namespace {

/// The variable's value, or nullopt when it is unset or empty. Any text
/// but a finite non-negative number of type T (for an integer T: decimal
/// digits within its range) is rejected.
template <class T>
std::optional<T> env_value(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return std::nullopt;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [stop, error] = std::from_chars(text, end, value);
  bool valid = error == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) {
    valid = valid && std::isfinite(value) && value >= 0.0;
  }
  SALARM_REQUIRE(valid, std::string(name) + " must be a non-negative " +
                            (std::is_integral_v<T> ? "integer" : "number"));
  return value;
}

}  // namespace

std::size_t ExperimentConfig::ticks() const {
  const double intervals = minutes * 60.0 / tick_seconds;
  // Every double below 2^64 converts to a 64-bit size_t, and the largest,
  // 2^64 - 2048, leaves room for the + 1.
  SALARM_REQUIRE(std::isfinite(tick_seconds) && tick_seconds > 0.0 &&
                     intervals >= 0.0 && intervals < 0x1p64,
                 "tick count out of range (minutes, tick_seconds)");
  return static_cast<std::size_t>(intervals) + 1;
}

ExperimentConfig ExperimentConfig::with_env_overrides() const {
  ExperimentConfig out = *this;
  if (const auto f = env_value<double>("SALARM_FULL"); f && *f != 0.0) {
    out.vehicles = 10000;
    out.minutes = 60.0;
  }
  if (const auto v = env_value<std::size_t>("SALARM_VEHICLES")) {
    out.vehicles = *v;
  }
  if (const auto m = env_value<double>("SALARM_MINUTES")) out.minutes = *m;
  if (const auto a = env_value<std::size_t>("SALARM_ALARMS")) {
    out.alarm_count = *a;
  }
  if (const auto s = env_value<std::uint64_t>("SALARM_SEED")) out.seed = *s;
  return out;
}

roadnet::RoadNetwork Experiment::build_network(
    const ExperimentConfig& config) {
  roadnet::NetworkConfig net;
  net.width_m = config.universe_km * kMetersPerKm;
  net.height_m = config.universe_km * kMetersPerKm;
  Rng rng(config.seed * 7919 + 1);
  return roadnet::build_synthetic_network(net, rng);
}

mobility::TraceConfig Experiment::trace_config(
    const ExperimentConfig& config) {
  mobility::TraceConfig trace;
  trace.vehicle_count = config.vehicles;
  trace.tick_seconds = config.tick_seconds;
  trace.seed = config.seed * 104729 + 2;
  return trace;
}

Experiment::Experiment(const ExperimentConfig& config)
    : config_(config), network_(build_network(config)),
      grid_(grid::GridOverlay::with_cell_area(
          network_.bounding_box(),
          sqkm_to_sqm(config.grid_cell_sqkm))),
      store_() {
  SALARM_REQUIRE(config.public_percent >= 0.0 &&
                     config.public_percent <= 100.0,
                 "public percent out of range");
  alarms::AlarmWorkloadConfig workload;
  workload.alarm_count = config.alarm_count;
  workload.subscriber_count = config.vehicles;
  workload.public_fraction = config.public_percent / 100.0;
  Rng rng(config.seed * 15485863 + 3);
  store_.install_bulk(
      alarms::generate_alarm_workload(workload, grid_.universe(), rng));
}

sim::Simulation& Experiment::simulation() {
  if (!simulation_) {
    generator_.emplace(network_, trace_config(config_));
    simulation_.emplace(*generator_, store_, grid_, config_.ticks());
  }
  return *simulation_;
}

double Experiment::max_speed_bound() const {
  return mobility::max_speed_bound(network_.max_speed_mps());
}

dynamics::ChurnConfig Experiment::churn_config(
    double installs_per_tick, double removes_per_tick) const {
  dynamics::ChurnConfig churn;
  churn.installs_per_tick = installs_per_tick;
  churn.removes_per_tick = removes_per_tick;
  churn.public_fraction = config_.public_percent / 100.0;
  churn.subscriber_count = config_.vehicles;
  return churn;
}

void Experiment::enable_churn(const dynamics::ChurnConfig& config) {
  simulation().set_churn(config, config_.seed * 32452843 + 4);
}

void Experiment::enable_channel(const net::ChannelConfig& config) {
  simulation().set_channel(config, config_.seed * 49979687 + 5);
}

void Experiment::enable_failover(const failover::FailoverConfig& config) {
  simulation().set_failover(config, config_.seed * 67867979 + 6);
}

sim::Simulation::StrategyFactory Experiment::periodic() const {
  return [](net::ClientLink& link) {
    return std::make_unique<strategies::PeriodicStrategy>(link);
  };
}

sim::Simulation::StrategyFactory Experiment::safe_period() const {
  const double bound = max_speed_bound();
  const double tick = config_.tick_seconds;
  return [bound, tick](net::ClientLink& link) {
    return std::make_unique<strategies::SafePeriodStrategy>(link, bound, tick);
  };
}

sim::Simulation::StrategyFactory Experiment::rect(
    saferegion::MotionModel model, saferegion::MwpsrOptions options) const {
  return [model, options](net::ClientLink& link) {
    return std::make_unique<strategies::RectRegionStrategy>(link, model,
                                                            options);
  };
}

sim::Simulation::StrategyFactory Experiment::bitmap(
    saferegion::PyramidConfig config) const {
  return [config](net::ClientLink& link) {
    return std::make_unique<strategies::BitmapRegionStrategy>(link, config);
  };
}

sim::Simulation::StrategyFactory Experiment::bitmap_cached(
    saferegion::PyramidConfig config) const {
  return [config](net::ClientLink& link) {
    return std::make_unique<strategies::BitmapRegionStrategy>(
        link, config, /*use_public_cache=*/true);
  };
}

sim::Simulation::StrategyFactory Experiment::optimal() const {
  return [](net::ClientLink& link) {
    return std::make_unique<strategies::OptimalStrategy>(link);
  };
}

}  // namespace salarm::core
