#include "alarms/alarm_store.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace salarm::alarms {

AlarmStore::AlarmStore(std::size_t rtree_node_capacity)
    : rtree_node_capacity_(rtree_node_capacity),
      tree_(rtree_node_capacity) {}

void AlarmStore::admit(SpatialAlarm& alarm) {
  SALARM_REQUIRE(!installed(alarm.id), "alarm id already installed");
  SALARM_REQUIRE(alarm.region.area() > 0.0,
                 "alarm region must have positive area");
  if (alarm.scope == AlarmScope::kPublic) {
    SALARM_REQUIRE(alarm.subscribers.empty(),
                   "public alarms must not carry a subscriber list");
  } else {
    SALARM_REQUIRE(!alarm.subscribers.empty(),
                   "non-public alarms need at least one subscriber");
  }
  SALARM_REQUIRE(alarms_.size() < kNoSlot, "alarm store full");
  std::sort(alarm.subscribers.begin(), alarm.subscribers.end());
  alarm.subscribers.erase(
      std::unique(alarm.subscribers.begin(), alarm.subscribers.end()),
      alarm.subscribers.end());
  if (alarm.id >= slot_of_.size()) slot_of_.resize(alarm.id + 1);
  slot_of_[alarm.id] = {static_cast<std::uint32_t>(alarms_.size()),
                        tag_of(alarm)};
}

std::uint32_t AlarmStore::tag_of(const SpatialAlarm& alarm) {
  if (alarm.scope == AlarmScope::kPublic) return kPublicTag;
  // A lone subscriber whose id is a tag value keeps the list tag.
  if (alarm.subscribers.size() == 1 && alarm.subscribers[0] < kListTag) {
    return alarm.subscribers[0];
  }
  return kListTag;
}

void AlarmStore::install(SpatialAlarm alarm) {
  admit(alarm);
  tree_.insert({alarm.region, alarm.id});
  alarms_.push_back(std::move(alarm));
}

void AlarmStore::install_bulk(std::vector<SpatialAlarm> alarms) {
  SALARM_REQUIRE(alarms_.empty(), "bulk install requires an empty store");
  std::vector<index::Entry> entries;
  entries.reserve(alarms.size());
  alarms_.reserve(alarms.size());
  for (SpatialAlarm& alarm : alarms) {
    admit(alarm);
    entries.push_back({alarm.region, alarm.id});
    alarms_.push_back(std::move(alarm));
  }
  tree_ = index::RStarTree::bulk_load(std::move(entries),
                                      rtree_node_capacity_);
}

bool AlarmStore::uninstall(AlarmId id) {
  const std::size_t slot = slot_of(id);
  if (slot == kNoSlot) return false;
  const bool erased = tree_.erase({alarms_[slot].region, id});
  SALARM_ASSERT(erased, "installed alarm missing from index");
  // Swap-and-pop so all() never reports uninstalled alarms (the cluster
  // tier builds shard slices from all(), and install_bulk requires a truly
  // empty store).
  if (slot != alarms_.size() - 1) {
    alarms_[slot] = std::move(alarms_.back());
    slot_of_[alarms_[slot].id].slot = static_cast<std::uint32_t>(slot);
  }
  alarms_.pop_back();
  slot_of_[id] = IdSlot{};
  return true;
}

void AlarmStore::clear() {
  alarms_.clear();
  slot_of_.clear();
  spent_.clear();
  tree_ = index::RStarTree(rtree_node_capacity_);
}

void AlarmStore::move_alarm(AlarmId id, const geo::Rect& new_region) {
  const std::size_t slot = slot_of(id);
  SALARM_REQUIRE(slot != kNoSlot, "no such alarm");
  SALARM_REQUIRE(new_region.area() > 0.0,
                 "alarm region must have positive area");
  const bool erased = tree_.erase({alarms_[slot].region, id});
  SALARM_ASSERT(erased, "installed alarm missing from index");
  alarms_[slot].region = new_region;
  tree_.insert({new_region, id});
}

const SpatialAlarm& AlarmStore::alarm(AlarmId id) const {
  const std::size_t slot = slot_of(id);
  SALARM_REQUIRE(slot != kNoSlot, "no such alarm");
  return alarms_[slot];
}

bool AlarmStore::subscribed(const SpatialAlarm& alarm, SubscriberId s) {
  if (alarm.scope == AlarmScope::kPublic) return true;
  return std::binary_search(alarm.subscribers.begin(),
                            alarm.subscribers.end(), s);
}

bool AlarmStore::subscribed(IdSlot at, SubscriberId s) const {
  switch (at.tag) {
    case kPublicTag:
      return true;
    case kListTag:
      return subscribed(alarms_[at.slot], s);
    default:
      return at.tag == s;
  }
}

bool AlarmStore::relevant(const SpatialAlarm& alarm, SubscriberId s) const {
  return subscribed(alarm, s) && !spent(alarm.id, s);
}

std::vector<const SpatialAlarm*> AlarmStore::relevant_in_window(
    const geo::Rect& window, SubscriberId s) const {
  std::vector<const SpatialAlarm*> out;
  tree_.visit(window, [&](const index::Entry& e) {
    const SpatialAlarm& a = alarms_[slot_of_[static_cast<AlarmId>(e.id)].slot];
    if (relevant(a, s)) out.push_back(&a);
    return true;
  });
  return out;
}

void AlarmStore::relevant_regions_in_window(
    const geo::Rect& window, SubscriberId s, Scopes scopes,
    std::vector<geo::Rect>& out) const {
  const bool public_too = scopes == Scopes::kAll;
  tree_.visit(window, [&](const index::Entry& e) {
    const SpatialAlarm& a = alarms_[slot_of_[static_cast<AlarmId>(e.id)].slot];
    if ((public_too || a.scope != AlarmScope::kPublic) && relevant(a, s)) {
      out.push_back(a.region);
    }
    return true;
  });
}

std::vector<const SpatialAlarm*> AlarmStore::public_in_window(
    const geo::Rect& window) const {
  std::vector<const SpatialAlarm*> out;
  tree_.visit(window, [&](const index::Entry& e) {
    const SpatialAlarm& a = alarms_[slot_of_[static_cast<AlarmId>(e.id)].slot];
    if (a.scope == AlarmScope::kPublic) out.push_back(&a);
    return true;
  });
  return out;
}

std::uint64_t AlarmStore::probe_position(SubscriberId s, geo::Point p,
                                         std::vector<AlarmId>& fired) const {
  return tree_.probe(p, [&](const index::Entry& e) {
    const SpatialAlarm& a = alarms_[slot_of_[static_cast<AlarmId>(e.id)].slot];
    // Open-interior trigger semantics: the alarm fires when the subscriber
    // enters the interior of the region; merely touching the boundary does
    // not (and safe regions may legally share that boundary).
    if (relevant(a, s) && a.region.interior_contains(p)) fired.push_back(a.id);
    return true;
  });
}

std::vector<AlarmId> AlarmStore::process_position(
    SubscriberId s, geo::Point p, std::uint64_t tick,
    std::vector<TriggerEvent>* log,
    FunctionRef<bool(AlarmId)> filter) {
  std::vector<AlarmId> fired;
  tree_.add_node_accesses(probe_position(s, p, fired));
  std::erase_if(fired, [&](AlarmId id) { return !filter(id); });
  for (const AlarmId id : fired) {
    mark_spent(id, s);
    if (log != nullptr) log->push_back({id, s, tick});
  }
  return fired;
}

void AlarmStore::mark_spent(AlarmId id, SubscriberId s) {
  // Deliberately no installed(id) requirement: spent state is pure trigger
  // history and outlives removal (uninstall keeps it), and the buffered-
  // report graveyard path records fires for already-uninstalled alarms.
  spent_.insert(spend_key(id, s));
}

bool AlarmStore::spent(AlarmId id, SubscriberId s) const {
  return spent_.contains(spend_key(id, s));
}

std::vector<std::pair<AlarmId, SubscriberId>> AlarmStore::spent_pairs() const {
  std::vector<std::pair<AlarmId, SubscriberId>> pairs;
  pairs.reserve(spent_.size());
  for (const std::uint64_t key : spent_) {
    pairs.emplace_back(static_cast<AlarmId>(key >> 32),
                       static_cast<SubscriberId>(key & 0xFFFFFFFFu));
  }
  // The set iterates in hash order; checkpoints must be byte-identical
  // across runs and thread counts, so sort.
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

void AlarmStore::reset_triggers() { spent_.clear(); }

double AlarmStore::nearest_relevant_distance(geo::Point p,
                                             SubscriberId s) const {
  return tree_.nearest_distance(p, [&](std::uint64_t id) {
    return subscribed(slot_of_[id], s) &&
           !spent(static_cast<AlarmId>(id), s);
  });
}

std::vector<SpatialAlarm> generate_alarm_workload(
    const AlarmWorkloadConfig& cfg, const geo::Rect& universe, Rng& rng) {
  SALARM_REQUIRE(cfg.alarm_count > 0, "empty workload");
  SALARM_REQUIRE(cfg.subscriber_count > 0, "need subscribers");
  SALARM_REQUIRE(cfg.public_fraction >= 0.0 && cfg.public_fraction <= 1.0,
                 "public fraction out of range");
  SALARM_REQUIRE(cfg.region_side_lo > 0.0 &&
                     cfg.region_side_hi >= cfg.region_side_lo,
                 "bad region side range");
  SALARM_REQUIRE(universe.area() > 0.0, "universe must have positive area");

  const double private_fraction_of_rest =
      kPrivateToShared / (kPrivateToShared + 1.0);

  std::vector<SpatialAlarm> out;
  out.reserve(cfg.alarm_count);
  for (std::size_t i = 0; i < cfg.alarm_count; ++i) {
    SpatialAlarm a;
    a.id = static_cast<AlarmId>(i);
    a.owner = static_cast<SubscriberId>(rng.index(cfg.subscriber_count));

    // Target uniform over the universe; region clipped to the universe so
    // the safe-region algorithms never see alarms sticking out of the grid.
    const geo::Point target{universe.lo().x + rng.uniform(0.0, universe.width()),
                            universe.lo().y +
                                rng.uniform(0.0, universe.height())};
    const double side = rng.uniform(cfg.region_side_lo, cfg.region_side_hi);
    const auto clipped =
        geo::Rect::centered_square(target, side).intersection(universe);
    SALARM_ASSERT(clipped.has_value(), "target fell outside the universe");
    a.region = *clipped;
    if (a.region.area() <= 0.0) {
      // Degenerate sliver on the very border; nudge inward instead.
      a.region = geo::Rect::centered_square(
          {std::clamp(target.x, universe.lo().x + side / 2,
                      universe.hi().x - side / 2),
           std::clamp(target.y, universe.lo().y + side / 2,
                      universe.hi().y - side / 2)},
          side);
    }

    // Alert content of realistic length (see SpatialAlarm::message).
    const auto message_len = static_cast<std::size_t>(rng.uniform_int(48, 160));
    a.message.assign(message_len, 'x');

    if (rng.chance(cfg.public_fraction)) {
      a.scope = AlarmScope::kPublic;
    } else if (rng.chance(private_fraction_of_rest)) {
      a.scope = AlarmScope::kPrivate;
      a.subscribers = {a.owner};
    } else {
      a.scope = AlarmScope::kShared;
      const std::size_t n = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(kSharedSubscribersLo),
          static_cast<std::int64_t>(kSharedSubscribersHi)));
      a.subscribers.push_back(a.owner);
      while (a.subscribers.size() < n) {
        a.subscribers.push_back(
            static_cast<SubscriberId>(rng.index(cfg.subscriber_count)));
      }
    }
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace salarm::alarms
