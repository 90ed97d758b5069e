#include "dynamics/churn.h"

#include <algorithm>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/error.h"

namespace salarm::dynamics {

namespace {

/// Fraction of installs that carry a TTL.
constexpr double kTtlFraction = 0.5;

/// Expected-value rate → integer count: the integer part always happens,
/// the fractional part is a Bernoulli draw.
std::size_t count_for_rate(double rate, Rng& rng) {
  SALARM_REQUIRE(rate >= 0.0, "negative churn rate");
  auto n = static_cast<std::size_t>(rate);
  const double frac = rate - static_cast<double>(n);
  if (frac > 0.0 && rng.chance(frac)) ++n;
  return n;
}

alarms::SpatialAlarm draw_alarm(const ChurnConfig& config,
                                const geo::Rect& universe, alarms::AlarmId id,
                                Rng& rng) {
  SALARM_REQUIRE(config.subscriber_count > 0, "churn needs subscribers");
  alarms::SpatialAlarm alarm;
  alarm.id = id;
  const double side =
      rng.uniform(config.region_side_lo, config.region_side_hi);
  SALARM_REQUIRE(universe.width() > side && universe.height() > side,
                 "alarm side exceeds universe");
  const geo::Point center{
      rng.uniform(universe.lo().x + side / 2, universe.hi().x - side / 2),
      rng.uniform(universe.lo().y + side / 2, universe.hi().y - side / 2)};
  alarm.region = geo::Rect::centered_square(center, side);
  alarm.message = "churn-" + std::to_string(id);

  const auto subscriber = [&] {
    return static_cast<alarms::SubscriberId>(
        rng.index(config.subscriber_count));
  };
  if (rng.chance(config.public_fraction)) {
    alarm.scope = alarms::AlarmScope::kPublic;
    alarm.owner = subscriber();
  } else {
    const double shared_p = 1.0 / (1.0 + alarms::kPrivateToShared);
    alarm.owner = subscriber();
    if (rng.chance(shared_p)) {
      alarm.scope = alarms::AlarmScope::kShared;
      const std::size_t want = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(alarms::kSharedSubscribersLo),
          static_cast<std::int64_t>(alarms::kSharedSubscribersHi)));
      alarm.subscribers.push_back(alarm.owner);
      while (alarm.subscribers.size() < want &&
             alarm.subscribers.size() < config.subscriber_count) {
        const auto s = subscriber();
        if (std::find(alarm.subscribers.begin(), alarm.subscribers.end(), s) ==
            alarm.subscribers.end()) {
          alarm.subscribers.push_back(s);
        }
      }
      // AlarmStore keeps subscriber lists sorted (subscribed() binary-
      // searches); emit the timeline already normalized.
      std::sort(alarm.subscribers.begin(), alarm.subscribers.end());
    } else {
      alarm.scope = alarms::AlarmScope::kPrivate;
      alarm.subscribers.push_back(alarm.owner);
    }
  }
  return alarm;
}

}  // namespace

AlarmScheduler::AlarmScheduler(
    const ChurnConfig& config, const geo::Rect& universe,
    const std::vector<alarms::SpatialAlarm>& initial_alarms,
    std::uint64_t ticks, std::uint64_t seed) {
  Rng rng(seed);

  alarms::AlarmId max_id = 0;
  std::vector<alarms::AlarmId> live;
  live.reserve(initial_alarms.size());
  for (const auto& alarm : initial_alarms) {
    max_id = std::max(max_id, alarm.id);
    live.push_back(alarm.id);
  }
  first_new_id_ = initial_alarms.empty() ? 0 : max_id + 1;
  alarms::AlarmId next_id = first_new_id_;

  // Min-heap of (expiry tick, id); stale entries (already removed by the
  // random remover) are skipped at pop time via `gone`.
  using Expiry = std::pair<std::uint64_t, alarms::AlarmId>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<>> expiries;
  std::unordered_set<alarms::AlarmId> gone;
  std::unordered_map<alarms::AlarmId, std::size_t> live_slot;
  for (std::size_t i = 0; i < live.size(); ++i) live_slot[live[i]] = i;

  const auto drop_live = [&](alarms::AlarmId id) {
    const auto it = live_slot.find(id);
    SALARM_ASSERT(it != live_slot.end(), "removing a dead alarm");
    const std::size_t slot = it->second;
    live_slot[live.back()] = slot;
    live[slot] = live.back();
    live.pop_back();
    live_slot.erase(it);
    gone.insert(id);
  };

  for (std::uint64_t t = 1; t < ticks; ++t) {
    // 1. TTL expiries due this tick (heap order: ascending id within tick).
    while (!expiries.empty() && expiries.top().first <= t) {
      const auto [_, id] = expiries.top();
      expiries.pop();
      if (gone.count(id) != 0) continue;  // randomly removed earlier
      drop_live(id);
      events_.push_back({t, ChurnEvent::Kind::kExpire, id, {}});
    }
    // 2. Random removals among currently-live alarms.
    for (std::size_t i = count_for_rate(config.removes_per_tick, rng); i > 0;
         --i) {
      if (live.empty()) break;
      const alarms::AlarmId id = live[rng.index(live.size())];
      drop_live(id);
      events_.push_back({t, ChurnEvent::Kind::kRemove, id, {}});
    }
    // 3. Installs, optionally with a TTL.
    for (std::size_t i = count_for_rate(config.installs_per_tick, rng); i > 0;
         --i) {
      const alarms::AlarmId id = next_id++;
      alarms::SpatialAlarm alarm = draw_alarm(config, universe, id, rng);
      if (rng.chance(kTtlFraction)) {
        const auto ttl = static_cast<std::uint64_t>(rng.uniform_int(
            static_cast<std::int64_t>(config.ttl_ticks_lo),
            static_cast<std::int64_t>(config.ttl_ticks_hi)));
        expiries.emplace(t + ttl, id);
      }
      live.push_back(id);
      live_slot[id] = live.size() - 1;
      events_.push_back({t, ChurnEvent::Kind::kInstall, id, std::move(alarm)});
    }
  }
}

void AlarmScheduler::for_each_due(std::uint64_t tick,
                                  FunctionRef<void(const ChurnEvent&)> fn) {
  SALARM_REQUIRE(cursor_ == 0 || tick >= last_tick_,
                 "churn ticks must be consumed in order");
  last_tick_ = tick;
  while (cursor_ < events_.size() && events_[cursor_].tick <= tick) {
    if (events_[cursor_].tick == tick) fn(events_[cursor_]);
    ++cursor_;
  }
}

}  // namespace salarm::dynamics
