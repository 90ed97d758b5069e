#include "core/spatial_alarm_service.h"

#include "common/error.h"
#include "saferegion/wire_format.h"

namespace salarm::core {

SpatialAlarmService::SpatialAlarmService(const Config& config)
    : config_(config),
      grid_(grid::GridOverlay::with_cell_area(config.universe,
                                              config.grid_cell_area_sqm)),
      server_(store_, grid_, metrics_) {}

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
  return next_id_++;
}

bool SpatialAlarmService::uninstall(alarms::AlarmId id) {
  return store_.uninstall(id);
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
  result.fired = server_.handle_position_update(subscriber, position, tick);
  switch (kind) {
    case RegionKind::kRect:
      result.safe_region_message = wire::encode(wire::RectSafeRegionMsg{
          server_.compute_rect_region(subscriber, position, heading, motion_,
                                      saferegion::MwpsrOptions{})
              .rect});
      break;
    case RegionKind::kPyramid:
      result.safe_region_message =
          wire::encode(wire::PyramidSafeRegionMsg::from(
              server_.compute_pyramid_region(subscriber, position,
                                             config_.pyramid)));
      break;
  }
  return result;
}

}  // namespace salarm::core
