#include "sim/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.h"

namespace salarm::sim {

Server::Server(alarms::AlarmStore& store, const grid::GridOverlay& grid,
               Metrics& metrics, const geo::Rect& extent)
    : store_(store), grid_(grid), metrics_(metrics), extent_(extent) {}

std::vector<alarms::AlarmId> Server::handle_position_update(
    alarms::SubscriberId s, geo::Point position, std::uint64_t tick) {
  return evaluate_report(s, position, tick, alarms::kAcceptAll);
}

std::vector<alarms::AlarmId> Server::handle_buffered_update(
    alarms::SubscriberId s, geo::Point position, std::uint64_t stamp_tick) {
  // Live index, restricted to alarms already installed at the stamp.
  // Without churn the filter accepts everything and this is exactly
  // handle_position_update.
  auto fired =
      evaluate_report(s, position, stamp_tick, [&](alarms::AlarmId id) {
        const auto it = installed_at_.find(id);
        return it == installed_at_.end() || it->second <= stamp_tick;
      });
  // Removal graveyard: alarms live at the stamp but uninstalled since.
  // Spent state is shared with the live store, so an alarm that fired
  // before its removal does not fire again here (and vice versa).
  metrics_.server_alarm_ops += graveyard_.size();
  for (const Tomb& tomb : graveyard_) {
    if (stamp_tick < tomb.installed_at || stamp_tick >= tomb.removed_at) {
      continue;
    }
    if (!tomb.alarm.region.interior_contains(position)) continue;
    if (!alarms::AlarmStore::subscribed(tomb.alarm, s)) continue;
    if (store_.spent(tomb.alarm.id, s)) continue;
    store_.mark_spent(tomb.alarm.id, s);
    trigger_log_.push_back({tomb.alarm.id, s, stamp_tick});
    fired.push_back(tomb.alarm.id);
    notify(tomb.alarm);
  }
  return fired;
}

std::vector<alarms::AlarmId> Server::evaluate_report(
    alarms::SubscriberId s, geo::Point position, std::uint64_t tick,
    FunctionRef<bool(alarms::AlarmId)> filter) {
  ++metrics_.uplink_messages;
  metrics_.uplink_bytes += wire::encoded_size(wire::PositionUpdate{});
  metrics_.server_alarm_ops += kOpsPerUpdateOverhead;
  auto fired = charged(&Metrics::server_alarm_ops, [&] {
    return store_.process_position(s, position, tick, &trigger_log_, filter);
  });
  for (const alarms::AlarmId id : fired) notify(store_.alarm(id));
  return fired;
}

void Server::notify(const alarms::SpatialAlarm& alarm) {
  ++metrics_.triggers;
  metrics_.downstream_notice_bytes +=
      wire::trigger_notice_size(alarm.message.size());
}

saferegion::RectSafeRegion Server::compute_rect_region(
    alarms::SubscriberId s, geo::Point position, double heading,
    const saferegion::MotionModel& model,
    const saferegion::MwpsrOptions& options) {
  const geo::Rect cell = grid_.cell_rect(grid_.cell_of(position));
  load_regions(cell, s, alarms::AlarmStore::Scopes::kAll);
  const auto region = saferegion::compute_mwpsr(position, heading, cell,
                                                regions_, model, options);
  metrics_.server_region_ops += region.ops;
  book_grant(s, dynamics::GrantKind::kRect, region.rect,
             wire::encoded_size(wire::RectSafeRegionMsg{}));
  return region;
}

saferegion::PyramidBitmap Server::compute_pyramid_region(
    alarms::SubscriberId s, geo::Point position,
    const saferegion::PyramidConfig& config, bool public_cache) {
  const grid::CellId cell_id = grid_.cell_of(position);
  const geo::Rect cell = grid_.cell_rect(cell_id);
  const std::size_t flat = grid_.flat_index(cell_id);
  // The client holds a bitmap of the whole base cell, so the cell is the
  // grant footprint: any install inside it must shrink the bitmap.
  auto grant = [&](saferegion::PyramidBitmap bitmap) {
    book_grant(s, dynamics::GrantKind::kPyramid, cell,
               wire::pyramid_message_size(bitmap.bit_size()));
    return bitmap;
  };

  if (public_cache) {
    if (public_cache_.empty()) public_cache_.resize(grid_.cell_count());
    auto& slot = public_cache_[flat];
    if (!slot.has_value() || slot->bitmap.config() != config) {
      // One-time, subscriber-independent work for this cell.
      const auto public_alarms = charged(&Metrics::server_region_ops, [&] {
        return store_.public_in_window(cell);
      });
      std::vector<alarms::AlarmId> public_ids;
      regions_.clear();
      for (const alarms::SpatialAlarm* a : public_alarms) {
        public_ids.push_back(a->id);
        regions_.push_back(a->region);
      }
      std::uint64_t build_ops = 0;
      slot = PublicCacheEntry{
          saferegion::PyramidBitmap::build(cell, regions_, config, &build_ops),
          std::move(public_ids)};
      metrics_.server_region_ops += build_ops;
    }
    // The cached bitmap treats every public alarm as live; if this
    // subscriber has already spent one here, it would be needlessly
    // conservative (the subscriber would ping from inside the spent
    // region), so fall back to the exact per-subscriber build.
    metrics_.server_region_ops += slot->public_ids.size();
    if (std::ranges::none_of(slot->public_ids, [&](alarms::AlarmId id) {
          return store_.spent(id, s);
        })) {
      load_regions(cell, s, alarms::AlarmStore::Scopes::kNonPublic);
      if (regions_.empty()) {
        ++metrics_.server_region_ops;  // cache hand-out
        return grant(slot->bitmap);
      }
      std::uint64_t ops = 0;
      const auto private_bitmap =
          saferegion::PyramidBitmap::build(cell, regions_, config, &ops);
      auto merged = slot->bitmap.intersect(private_bitmap, &ops);
      metrics_.server_region_ops += ops;
      return grant(std::move(merged));
    }
  }

  load_regions(cell, s, alarms::AlarmStore::Scopes::kAll);
  return grant(memoized_build(flat, cell, config));
}

saferegion::PyramidBitmap Server::memoized_build(
    std::size_t flat, const geo::Rect& cell,
    const saferegion::PyramidConfig& config) {
  if (pyramid_memo_.empty()) pyramid_memo_.resize(grid_.cell_count());
  PyramidMemoCell& memo = pyramid_memo_[flat];
  std::vector<PyramidBuild>& ways = memo.ways;
  const auto hit = std::ranges::find_if(ways, [&](const PyramidBuild& way) {
    return way.bitmap.config() == config &&
           std::ranges::equal(way.regions, regions_);
  });
  if (hit != ways.end()) {
    std::rotate(ways.begin(), hit, hit + 1);
    metrics_.server_region_ops += ways.front().ops;
    return ways.front().bitmap;
  }
  std::uint64_t build_ops = 0;
  auto bitmap =
      saferegion::PyramidBitmap::build(cell, regions_, config, &build_ops);
  metrics_.server_region_ops += build_ops;
  if (ways.size() < kPyramidMemoWays) {
    ways.reserve(kPyramidMemoWays);
    ways.push_back({{}, 0, bitmap});
  }
  // Every way keeps room for the largest key and bitmap stored in this
  // cell, so overwriting one allocates only when a build outgrows them all.
  memo.max_regions = std::max(memo.max_regions, regions_.size());
  memo.max_nodes = std::max(memo.max_nodes, bitmap.node_count());
  for (PyramidBuild& way : ways) {
    way.regions.reserve(memo.max_regions);
    way.bitmap.reserve(memo.max_nodes);
  }
  // The least recent way (or the new one) moves to the front and takes
  // this build.
  std::rotate(ways.begin(), ways.end() - 1, ways.end());
  PyramidBuild& way = ways.front();
  way.regions.assign(regions_.begin(), regions_.end());
  way.ops = build_ops;
  way.bitmap = bitmap;
  return bitmap;
}

double Server::compute_safe_period(alarms::SubscriberId s,
                                   geo::Point position, double max_speed_mps,
                                   double tick_seconds) {
  SALARM_REQUIRE(max_speed_mps > 0.0, "speed bound must be positive");
  SALARM_REQUIRE(tick_seconds > 0.0, "tick must be positive");
  const double nearest = charged(&Metrics::server_region_ops, [&] {
    return store_.nearest_relevant_distance(position, s);
  });
  // Escape distance: only sides shared with a neighbouring shard count; a
  // universe edge cannot be crossed, so capping at it would over-restrict
  // the grant of an edge shard.
  const geo::Rect& universe = grid_.universe();
  double escape = std::numeric_limits<double>::infinity();
  if (extent_.lo().x > universe.lo().x) {
    escape = std::min(escape, position.x - extent_.lo().x);
  }
  if (extent_.hi().x < universe.hi().x) {
    escape = std::min(escape, extent_.hi().x - position.x);
  }
  if (extent_.lo().y > universe.lo().y) {
    escape = std::min(escape, position.y - extent_.lo().y);
  }
  if (extent_.hi().y < universe.hi().y) {
    escape = std::min(escape, extent_.hi().y - position.y);
  }
  const double distance = std::min(nearest, std::max(escape, 0.0));
  if (std::isinf(distance)) {
    // No relevant alarm in reach: the client goes silent forever, so a
    // later install *anywhere* relevant to it must revoke the grant.
    book_grant(s, dynamics::GrantKind::kSafePeriod, universe, 0);
    return distance;
  }
  // Everywhere the client can reach before the period expires (worst-case
  // straight-line travel at the speed bound) is the grant footprint.
  book_grant(s, dynamics::GrantKind::kSafePeriod,
             geo::Rect::centered_square(position, 2.0 * distance)
                 .intersection(universe)
                 .value_or(geo::Rect(position, position)),
             wire::encoded_size(wire::SafePeriodMsg{}));
  return std::max(distance / max_speed_mps, tick_seconds);
}

std::vector<const alarms::SpatialAlarm*> Server::push_alarms(
    alarms::SubscriberId s, geo::Point position) {
  const geo::Rect cell = grid_.cell_rect(grid_.cell_of(position));
  auto relevant = charged(&Metrics::server_region_ops, [&] {
    return store_.relevant_in_window(cell, s);
  });
  std::size_t message_bytes = 0;
  for (const alarms::SpatialAlarm* a : relevant) {
    message_bytes += a->message.size();
  }
  // The client evaluates this cell's alarm list locally until it leaves
  // the cell: installs inside the cell must be push-appended to the list.
  book_grant(s, dynamics::GrantKind::kAlarmList, cell,
             wire::alarm_push_size(relevant.size(), message_bytes));
  return relevant;
}

void Server::load_regions(const geo::Rect& cell, alarms::SubscriberId s,
                          alarms::AlarmStore::Scopes scopes) {
  regions_.clear();
  charged(&Metrics::server_region_ops, [&] {
    store_.relevant_regions_in_window(cell, s, scopes, regions_);
    return 0;
  });
}

void Server::enable_dynamics(std::size_t subscriber_count) {
  dynamics_enabled_ = true;
  mailboxes_.assign(subscriber_count, {});
}

void Server::book_grant(alarms::SubscriberId s, dynamics::GrantKind kind,
                        const geo::Rect& bounds, std::size_t bytes) {
  ++metrics_.safe_region_recomputes;
  if (bytes > 0) {
    metrics_.downstream_region_bytes += bytes;
    metrics_.region_payload_bytes.add(static_cast<double>(bytes));
  }
  if (!dynamics_enabled_) return;
  const std::uint64_t before = sessions_.node_accesses();
  sessions_.record(s, kind, bounds);
  metrics_.server_region_ops +=
      (sessions_.node_accesses() - before) * kOpsPerNodeAccess;
}

void Server::push_invalidation(alarms::SubscriberId s,
                               dynamics::GrantKind kind,
                               const alarms::SpatialAlarm& alarm) {
  dynamics::InvalidationPush push;
  push.alarm = alarm.id;
  push.region = alarm.region;
  switch (kind) {
    case dynamics::GrantKind::kPyramid:
      push.action = dynamics::InvalidationAction::kShrink;
      break;
    case dynamics::GrantKind::kAlarmList:
      push.action = dynamics::InvalidationAction::kAlarmAdd;
      push.message = alarm.message;
      break;
    default:
      push.action = dynamics::InvalidationAction::kRevoke;
      break;
  }
  ++metrics_.invalidation_pushes;
  metrics_.invalidation_bytes +=
      wire::invalidation_message_size(push.message.size());
  // A revoked grant is gone: the client re-contacts the server this tick
  // and a fresh grant will be recorded then. Shrink / alarm-add grants
  // keep their footprint (the cell) — later installs still need pushes.
  if (push.action == dynamics::InvalidationAction::kRevoke) {
    sessions_.clear(s);
  }
  if (s >= mailboxes_.size()) mailboxes_.resize(s + 1);
  mailboxes_[s].push_back(std::move(push));
}

void Server::install_alarm(const alarms::SpatialAlarm& alarm,
                           std::uint64_t tick) {
  SALARM_REQUIRE(dynamics_enabled_, "dynamics tier not enabled");
  charged(&Metrics::server_alarm_ops, [&] {
    store_.install(alarm);
    return 0;
  });
  installed_at_[alarm.id] = tick;
  metrics_.server_alarm_ops += kOpsPerUpdateOverhead;
  ++metrics_.alarms_installed;
  // Use the admitted copy from here on: install normalizes (sorts) the
  // subscriber list, which the subscribed() check below requires.
  const alarms::SpatialAlarm& installed = store_.alarm(alarm.id);

  // A cached public bitmap that predates a public install would mask the
  // new alarm for every future hand-out: drop the affected cells.
  if (installed.scope == alarms::AlarmScope::kPublic &&
      !public_cache_.empty()) {
    for (const grid::CellId cell :
         grid_.cells_intersecting(installed.region)) {
      public_cache_[grid_.flat_index(cell)].reset();
    }
  }

  // Range-query the outstanding grants and push to every affected
  // subscriber the alarm applies to.
  const std::uint64_t before = sessions_.node_accesses();
  std::vector<std::pair<alarms::SubscriberId, dynamics::GrantKind>> affected;
  sessions_.visit_intersecting(
      installed.region,
      [&](alarms::SubscriberId s, const dynamics::SessionIndex::Grant& g) {
        affected.emplace_back(s, g.kind);
        return true;
      });
  metrics_.server_region_ops +=
      (sessions_.node_accesses() - before) * kOpsPerNodeAccess;
  for (const auto& [s, kind] : affected) {
    if (!alarms::AlarmStore::subscribed(installed, s)) continue;
    push_invalidation(s, kind, installed);
  }
}

bool Server::remove_alarm(alarms::AlarmId id, std::uint64_t tick) {
  SALARM_REQUIRE(dynamics_enabled_, "dynamics tier not enabled");
  if (!store_.installed(id)) return false;
  charged(&Metrics::server_alarm_ops, [&] {
    bury(id, tick);
    return 0;
  });
  metrics_.server_alarm_ops += kOpsPerUpdateOverhead;
  ++metrics_.alarms_removed;
  return true;
}

void Server::bury(alarms::AlarmId id, std::uint64_t tick) {
  const auto born = installed_at_.extract(id);
  graveyard_.push_back({store_.alarm(id), born ? born.mapped() : 0, tick});
  store_.uninstall(id);
}

std::vector<dynamics::InvalidationPush> Server::take_invalidations(
    alarms::SubscriberId s) {
  if (s >= mailboxes_.size() || mailboxes_[s].empty()) return {};
  return std::exchange(mailboxes_[s], {});
}

void Server::crash() {
  store_.clear();
  installed_at_.clear();
  graveyard_.clear();
  sessions_ = dynamics::SessionIndex{};
  // Mailboxes were drained by every strategy at its last on_tick and
  // installs only run in the serial phase, so they are empty between
  // ticks; clear each slot (never the vector itself — the pre-sized shape
  // is what keeps the parallel path allocation-free).
  for (auto& box : mailboxes_) box.clear();
  public_cache_.clear();
  pyramid_memo_.clear();
}

wire::ShardCheckpointMsg Server::checkpoint(std::uint64_t tick) const {
  wire::ShardCheckpointMsg cp;
  cp.tick = tick;
  for (const alarms::SpatialAlarm& a : store_.all()) {
    const auto it = installed_at_.find(a.id);
    cp.alarms.push_back({a, it == installed_at_.end() ? 0 : it->second});
  }
  cp.graveyard = graveyard_;
  for (const auto& [alarm, subscriber] : store_.spent_pairs()) {
    cp.spent.push_back({alarm, subscriber});
  }
  for (const auto& [subscriber, grant] : sessions_.snapshot()) {
    cp.grants.push_back(
        {subscriber, static_cast<std::uint8_t>(grant.kind), grant.bounds});
  }
  return cp;
}

void Server::restore(const wire::ShardCheckpointMsg& checkpoint) {
  for (const auto& rec : checkpoint.alarms) {
    reinstall(rec.alarm, rec.installed_at);
  }
  graveyard_.insert(graveyard_.end(), checkpoint.graveyard.begin(),
                    checkpoint.graveyard.end());
  for (const auto& rec : checkpoint.spent) {
    store_.mark_spent(rec.alarm, rec.subscriber);
  }
  if (!dynamics_enabled_) return;
  for (const auto& rec : checkpoint.grants) {
    sessions_.record(rec.subscriber,
                     static_cast<dynamics::GrantKind>(rec.kind), rec.bounds);
  }
}

void Server::replay(const wire::JournalRecordMsg& record) {
  switch (record.kind) {
    case wire::JournalRecordMsg::Kind::kInstall:
      reinstall(record.alarm, record.tick);
      break;
    case wire::JournalRecordMsg::Kind::kRemove:
      if (store_.installed(record.alarm_id)) bury(record.alarm_id, record.tick);
      break;
    case wire::JournalRecordMsg::Kind::kSpent:
      store_.mark_spent(record.alarm_id, record.subscriber);
      break;
  }
}

void Server::reinstall(const alarms::SpatialAlarm& alarm,
                       std::uint64_t installed_at) {
  store_.install(alarm);
  // Tick 0 means "loaded at run start": absent from the map, exactly as
  // before the crash (the buffered-report filter treats both identically).
  if (installed_at > 0) installed_at_[alarm.id] = installed_at;
}

std::size_t Server::compact_graveyard(std::uint64_t watermark) {
  const std::size_t before = graveyard_.size();
  std::erase_if(graveyard_, [&](const Tomb& tomb) {
    return tomb.removed_at <= watermark;
  });
  return before - graveyard_.size();
}

}  // namespace salarm::sim
