#include "sim/oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_set>

#include "common/error.h"
#include "common/parallel_executor.h"

namespace salarm::sim {

namespace {

using alarms::AlarmId;
using alarms::SubscriberId;
using alarms::TriggerEvent;

/// Subscribers per match task. A constant, so the chunking — and with it
/// the merge order — never depends on the thread count.
constexpr std::size_t kGrain = 512;

/// Upper bound on cells per grid axis, so alarms far smaller than the
/// extent cannot blow the grid up.
constexpr double kMaxCellsPerAxis = 512.0;

/// Cells along the extent's longer side when there are no initial alarms
/// to size the grid by.
constexpr double kFallbackCellsPerAxis = 64.0;

/// The oracle's own spent set: (alarm, subscriber) pairs, keyed by alarm id
/// so trigger history outlives an alarm's removal.
using SpentSet = std::unordered_set<std::uint64_t>;

std::uint64_t spent_key(AlarmId a, SubscriberId s) {
  return (static_cast<std::uint64_t>(a) << 32) | s;
}

/// One grid axis: `cells` equal cells spanning [lo, hi].
class Axis {
 public:
  Axis(double lo, double hi, double side)
      : lo_(lo),
        cells_(cell_count(hi - lo, side)),
        per_meter_(hi > lo ? static_cast<double>(cells_) / (hi - lo) : 0.0) {}

  std::size_t cells() const { return cells_; }

  /// Floor, then clamp into [0, cells - 1]. Monotone in v, and the one map
  /// used for alarm spans and positions alike, so a point strictly inside
  /// an alarm's span lands in a cell that lists the alarm. The clamp comes
  /// before the cast (a float-to-integer cast out of range is undefined);
  /// NaN fails the first test and lands in cell 0.
  std::size_t cell_of(double v) const {
    const double f = std::floor((v - lo_) * per_meter_);
    if (!(f > 0.0)) return 0;
    const double last = static_cast<double>(cells_ - 1);
    return f < last ? static_cast<std::size_t>(f) : cells_ - 1;
  }

 private:
  /// ceil(length / side) cells, at least 1 (also for NaN) and at most
  /// kMaxCellsPerAxis.
  static std::size_t cell_count(double length, double side) {
    const double n = std::ceil(length / side);
    if (!(n > 1.0)) return 1;
    return static_cast<std::size_t>(std::min(n, kMaxCellsPerAxis));
  }

  double lo_;
  std::size_t cells_;
  double per_meter_;
};

/// The oracle's private alarm table: a uniform grid whose cells hold the
/// rects of every alarm whose span covers them, inline, plus per alarm the
/// id, a public flag and a sorted copy of the subscriber list.
class AlarmTable {
 public:
  AlarmTable(const geo::Rect& extent,
             const std::vector<alarms::SpatialAlarm>& initial)
      : AlarmTable(extent, initial, cell_side(extent, initial)) {}

  /// Most entries any cell has held: no position matches more alarms.
  std::size_t max_cell_load() const { return max_load_; }

  /// Brings the table in line with `alarms` (the store's set after churn):
  /// inserts alarms it lacks, replaces ones whose region, scope or
  /// subscribers changed under the same id, and erases the rest.
  void reconcile(const std::vector<alarms::SpatialAlarm>& alarms) {
    ++epoch_;
    for (const alarms::SpatialAlarm& a : alarms) {
      std::uint32_t slot = slot_of(a.id);
      if (slot != kNone && !items_[slot].same_as(a)) {
        erase(slot);
        slot = kNone;
      }
      if (slot == kNone) slot = insert(a);
      items_[slot].seen = epoch_;
    }
    for (std::uint32_t slot = 0; slot < items_.size(); ++slot) {
      if (items_[slot].live && items_[slot].seen != epoch_) erase(slot);
    }
  }

  /// Appends {alarm, s, tick} for every alarm s subscribes to, has not
  /// spent, and whose open interior contains p — in ascending alarm id.
  /// Read-only; allocates only when `out` must grow.
  void match(SubscriberId s, geo::Point p, std::uint64_t tick,
             const SpentSet& spent, std::vector<TriggerEvent>& out) const {
    const std::size_t first = out.size();
    for (const Entry& e : cells_[y_.cell_of(p.y) * x_.cells() +
                                 x_.cell_of(p.x)]) {
      // Open interior: touching the boundary does not fire.
      if (!(p.x > e.lx && p.x < e.hx && p.y > e.ly && p.y < e.hy)) continue;
      const Item& item = items_[e.item];
      if (e.sole == kListed) {
        if (!std::binary_search(item.subscribers.begin(),
                                item.subscribers.end(), s)) {
          continue;
        }
      } else if (e.sole != kEveryone && e.sole != s) {
        continue;
      }
      if (spent.contains(spent_key(item.id, s))) continue;
      out.push_back({item.id, s, tick});
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
              [](const TriggerEvent& a, const TriggerEvent& b) {
                return a.alarm < b.alarm;
              });
  }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  AlarmTable(const geo::Rect& extent,
             const std::vector<alarms::SpatialAlarm>& initial, double side)
      : x_(extent.lo().x, extent.hi().x, side),
        y_(extent.lo().y, extent.hi().y, side),
        cells_(x_.cells() * y_.cells()) {
    for (const alarms::SpatialAlarm& a : initial) insert(a);
  }

  /// Entry::sole for a public alarm, and for one whose subscriber list
  /// must be looked up; any other value is the alarm's only subscriber.
  /// The field costs no space (it fills the entry's padding) and spares
  /// the match a load of the item for the common private alarm.
  static constexpr SubscriberId kEveryone = static_cast<SubscriberId>(-1);
  static constexpr SubscriberId kListed = kEveryone - 1;

  struct Entry {
    double lx, ly, hx, hy;
    std::uint32_t item;
    SubscriberId sole;
  };

  struct Item {
    AlarmId id = 0;
    geo::Rect region;
    bool is_public = false;
    std::vector<SubscriberId> subscribers;
    std::size_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;  ///< cell span, inclusive
    bool live = false;
    std::uint64_t seen = 0;  ///< last reconcile epoch that found it

    bool same_as(const alarms::SpatialAlarm& a) const {
      return region == a.region &&
             is_public == (a.scope == alarms::AlarmScope::kPublic) &&
             std::ranges::equal(subscribers, a.subscribers);
    }
  };

  /// The initial alarms' mean side, or a fixed fraction of the extent
  /// when there are none.
  static double cell_side(const geo::Rect& extent,
                          const std::vector<alarms::SpatialAlarm>& initial) {
    double sum = 0.0;
    for (const alarms::SpatialAlarm& a : initial) {
      sum += (a.region.width() + a.region.height()) / 2.0;
    }
    if (!initial.empty() && sum > 0.0) {
      return sum / static_cast<double>(initial.size());
    }
    return std::max(extent.width(), extent.height()) / kFallbackCellsPerAxis;
  }

  std::uint32_t slot_of(AlarmId id) const {
    return id < slot_of_.size() ? slot_of_[id] : kNone;
  }

  std::vector<Entry>& cell(std::size_t x, std::size_t y) {
    return cells_[y * x_.cells() + x];
  }

  std::uint32_t insert(const alarms::SpatialAlarm& a) {
    std::uint32_t slot = 0;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(items_.size());
      items_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Item& item = items_[slot];
    item.id = a.id;
    item.region = a.region;
    item.is_public = a.scope == alarms::AlarmScope::kPublic;
    item.subscribers.assign(a.subscribers.begin(), a.subscribers.end());
    std::sort(item.subscribers.begin(), item.subscribers.end());
    item.live = true;
    const geo::Point lo = a.region.lo();
    const geo::Point hi = a.region.hi();
    SubscriberId sole = kListed;
    if (item.is_public) {
      sole = kEveryone;
    } else if (item.subscribers.size() == 1 &&
               item.subscribers.front() < kListed) {
      sole = item.subscribers.front();
    }
    item.x0 = x_.cell_of(lo.x);
    item.x1 = x_.cell_of(hi.x);
    item.y0 = y_.cell_of(lo.y);
    item.y1 = y_.cell_of(hi.y);
    for (std::size_t y = item.y0; y <= item.y1; ++y) {
      for (std::size_t x = item.x0; x <= item.x1; ++x) {
        std::vector<Entry>& entries = cell(x, y);
        entries.push_back({lo.x, lo.y, hi.x, hi.y, slot, sole});
        max_load_ = std::max(max_load_, entries.size());
      }
    }
    if (a.id >= slot_of_.size()) slot_of_.resize(a.id + 1, kNone);
    slot_of_[a.id] = slot;
    return slot;
  }

  void erase(std::uint32_t slot) {
    Item& item = items_[slot];
    for (std::size_t y = item.y0; y <= item.y1; ++y) {
      for (std::size_t x = item.x0; x <= item.x1; ++x) {
        std::vector<Entry>& entries = cell(x, y);
        const auto it = std::ranges::find(entries, slot, &Entry::item);
        SALARM_ASSERT(it != entries.end(), "alarm missing from its cell");
        *it = entries.back();
        entries.pop_back();
      }
    }
    slot_of_[item.id] = kNone;
    item.live = false;
    free_.push_back(slot);
  }

  Axis x_;
  Axis y_;
  std::vector<std::vector<Entry>> cells_;  // row-major, y * x_.cells() + x
  std::vector<Item> items_;
  std::vector<std::uint32_t> free_;     // dead item slots, reused first
  std::vector<std::uint32_t> slot_of_;  // AlarmId -> item slot (kNone)
  std::size_t max_load_ = 0;
  std::uint64_t epoch_ = 0;
};

/// One contiguous subscriber range and the pairs it fired this tick. The
/// buffer is sized on the calling thread.
struct Chunk {
  mobility::VehicleId begin = 0;
  mobility::VehicleId end = 0;
  mobility::VehicleId next = 0;  ///< first subscriber not yet matched
  std::vector<TriggerEvent> fired;
};

/// The oracle over `store`'s alarm set; `apply_churn(t)`, if set, changes
/// that set before tick t >= 1 is matched.
std::vector<TriggerEvent> replay_trace(
    mobility::PositionSource& source, const alarms::AlarmStore& store,
    std::size_t ticks, const std::function<void(std::size_t)>& apply_churn) {
  source.reset();
  const std::size_t vehicles = source.samples().size();
  AlarmTable table(source.extent(), store.all());
  SpentSet spent;

  std::vector<Chunk> chunks((vehicles + kGrain - 1) / kGrain);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].begin = static_cast<mobility::VehicleId>(i * kGrain);
    chunks[i].end =
        static_cast<mobility::VehicleId>(std::min(vehicles, (i + 1) * kGrain));
  }
  std::vector<alarms::TriggerEvent> events;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t > 0) {
      source.step();
      if (apply_churn) {
        apply_churn(t);
        table.reconcile(store.all());
      }
    }
    const auto& samples = source.samples();
    SALARM_ASSERT(samples.size() == vehicles,
                  "position source changed its vehicle count");
    const std::size_t headroom = table.max_cell_load();
    for (Chunk& chunk : chunks) {
      chunk.next = chunk.begin;
      chunk.fired.clear();
      chunk.fired.reserve(kGrain + headroom);
    }
    const auto match_next = [&](Chunk& chunk) {
      const mobility::VehicleId v = chunk.next++;
      table.match(v, samples[v].pos, t, spent, chunk.fired);
    };
    // Read-only matches in parallel; the table and the spent set are not
    // mutated until every task has returned. A worker matches its next
    // subscriber only while its buffer has room for every alarm of the
    // fullest cell; otherwise it stops and the calling thread finishes the
    // chunk, so the workers never grow (allocate) it.
    ParallelTickExecutor::shared().run(chunks.size(), [&](std::size_t c) {
      Chunk& chunk = chunks[c];
      while (chunk.next < chunk.end &&
             chunk.fired.capacity() - chunk.fired.size() >= headroom) {
        match_next(chunk);
      }
    });
    // Ordered merge on this thread: chunk order is subscriber order, and
    // each subscriber's pairs are in alarm order.
    for (Chunk& chunk : chunks) {
      while (chunk.next < chunk.end) match_next(chunk);
      for (const TriggerEvent& e : chunk.fired) {
        spent.insert(spent_key(e.alarm, e.subscriber));
        events.push_back(e);
      }
    }
  }
  return events;
}

}  // namespace

std::vector<alarms::TriggerEvent> ground_truth_triggers(
    mobility::PositionSource& source, const alarms::AlarmStore& store,
    std::size_t ticks) {
  return replay_trace(source, store, ticks, {});
}

std::vector<alarms::TriggerEvent> ground_truth_triggers(
    mobility::PositionSource& source, alarms::AlarmStore& store,
    std::size_t ticks,
    const std::function<void(std::size_t, alarms::AlarmStore&)>&
        apply_churn) {
  if (!apply_churn) return replay_trace(source, store, ticks, {});
  return replay_trace(source, store, ticks,
                      [&](std::size_t t) { apply_churn(t, store); });
}

AccuracyReport compare_triggers(std::vector<alarms::TriggerEvent> expected,
                                std::vector<alarms::TriggerEvent> observed) {
  AccuracyReport report;
  report.expected = expected.size();
  report.observed = observed.size();

  using Pair = std::pair<alarms::AlarmId, alarms::SubscriberId>;
  std::map<Pair, std::uint64_t> expected_ticks;
  for (const auto& e : expected) {
    expected_ticks.emplace(Pair{e.alarm, e.subscriber}, e.tick);
  }
  std::map<Pair, std::uint64_t> observed_ticks;
  for (const auto& e : observed) {
    // Triggers are one-shot: a second fire of the same pair is spurious.
    if (!observed_ticks.emplace(Pair{e.alarm, e.subscriber}, e.tick).second) {
      ++report.spurious;
    }
  }

  for (const auto& [pair, tick] : expected_ticks) {
    const auto it = observed_ticks.find(pair);
    if (it == observed_ticks.end()) {
      ++report.missed;
    } else if (it->second > tick) {
      ++report.late;
    }
  }
  for (const auto& [pair, tick] : observed_ticks) {
    if (!expected_ticks.contains(pair)) ++report.spurious;
  }
  return report;
}

}  // namespace salarm::sim
