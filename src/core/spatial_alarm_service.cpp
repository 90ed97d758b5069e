#include "core/spatial_alarm_service.h"

#include "common/error.h"

namespace salarm::core {

SpatialAlarmService::SpatialAlarmService(const Config& config)
    : config_(config),
      grid_(grid::GridOverlay::with_cell_area(config.universe,
                                              config.grid_cell_area_sqm)),
      motion_(config.motion_y, config.motion_z) {}

alarms::AlarmId SpatialAlarmService::install(
    alarms::AlarmScope scope, alarms::SubscriberId owner,
    const geo::Rect& region, std::vector<alarms::SubscriberId> subscribers) {
  SALARM_REQUIRE(config_.universe.contains(region),
                 "alarm region outside the universe");
  alarms::SpatialAlarm alarm;
  alarm.id = next_id_;
  alarm.scope = scope;
  alarm.owner = owner;
  alarm.region = region;
  if (scope == alarms::AlarmScope::kPrivate && subscribers.empty()) {
    subscribers = {owner};
  }
  alarm.subscribers = std::move(subscribers);
  store_.install(std::move(alarm));  // throws on a rejected alarm
  ++installed_count_;
  return next_id_++;
}

bool SpatialAlarmService::uninstall(alarms::AlarmId id) {
  if (!store_.uninstall(id)) return false;
  --installed_count_;
  return true;
}

void SpatialAlarmService::move(alarms::AlarmId id,
                               const geo::Rect& new_region) {
  SALARM_REQUIRE(config_.universe.contains(new_region),
                 "alarm region outside the universe");
  store_.move_alarm(id, new_region);
}

SpatialAlarmService::UpdateResult SpatialAlarmService::process_update(
    alarms::SubscriberId subscriber, geo::Point position, double heading,
    std::uint64_t tick, RegionKind kind) {
  SALARM_REQUIRE(config_.universe.contains(position),
                 "position outside the universe");
  UpdateResult result;
  result.fired =
      store_.process_position(subscriber, position, tick, &trigger_log_);

  const geo::Rect cell = grid_.cell_rect(grid_.cell_of(position));
  std::vector<geo::Rect> regions;
  store_.relevant_regions_in_window(cell, subscriber,
                                    alarms::AlarmStore::Scopes::kAll, regions);

  switch (kind) {
    case RegionKind::kRect: {
      const auto region = saferegion::compute_mwpsr(
          position, heading, cell, regions, motion_, config_.mwpsr);
      result.safe_region_message =
          wire::encode(wire::RectSafeRegionMsg{region.rect});
      break;
    }
    case RegionKind::kPyramid: {
      const auto bitmap =
          saferegion::PyramidBitmap::build(cell, regions, config_.pyramid);
      result.safe_region_message =
          wire::encode(wire::PyramidSafeRegionMsg::from(bitmap));
      break;
    }
  }
  return result;
}

}  // namespace salarm::core
