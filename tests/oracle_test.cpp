// Ground-truth oracle tests (sim/oracle.h).
//
// Two references pin the oracle. The first is the serial oracle loop as it
// stood before the oracle got a table of its own, preserved verbatim: one
// AlarmStore::process_position per subscriber per tick, in subscriber
// order. The oracle must reproduce its events once they are stably sorted
// into canonical (tick, subscriber, alarm) order — only the order inside
// one (tick, subscriber) group differs — on a static workload, under churn,
// and at vehicle counts that do not fill whole 512-subscriber chunks; and
// it must make no R*-tree node access of its own. The second is a test-
// local linear scan over a plain alarm vector with its own spent set,
// which shares no code with the store at all, run on hand-placed positions
// (grid-cell boundaries, alarm edges, alarms outside the extent, an empty
// initial set, same-tick remove and install, several fires at once) and on
// small seeded cases.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "bench/random_waypoint.h"
#include "common/rng.h"
#include "geometry/rect.h"
#include "dynamics/churn.h"
#include "sim/oracle.h"

namespace salarm {
namespace {

using alarms::TriggerEvent;
using ChurnFn = std::function<void(std::size_t, alarms::AlarmStore&)>;

/// The pre-parallel sim::ground_truth_triggers body, verbatim.
std::vector<TriggerEvent> reference_ground_truth(
    mobility::PositionSource& source, alarms::AlarmStore& store,
    std::size_t ticks, const ChurnFn& apply_churn) {
  store.reset_triggers();
  source.reset();
  std::vector<alarms::TriggerEvent> events;
  for (std::size_t t = 0; t < ticks; ++t) {
    if (t > 0) {
      source.step();
      if (apply_churn) apply_churn(t, store);
    }
    const auto& samples = source.samples();
    for (mobility::VehicleId v = 0; v < samples.size(); ++v) {
      (void)store.process_position(v, samples[v].pos, t, &events);
    }
  }
  store.reset_triggers();
  return events;
}

struct OracleCase {
  std::size_t vehicles;
  bool churn;
  /// A heavily overlapping public workload fires far more pairs per chunk
  /// in one tick than the pre-sized buffers hold.
  bool dense;
};

constexpr std::size_t kTicks = 60;
const geo::Rect kUniverse(0.0, 0.0, 6000.0, 6000.0);

std::vector<alarms::SpatialAlarm> workload(const OracleCase& c) {
  alarms::AlarmWorkloadConfig cfg;
  cfg.alarm_count = 2000;
  cfg.subscriber_count = c.vehicles;
  if (c.dense) {
    cfg.public_fraction = 0.6;
    cfg.region_side_lo = 300.0;
    cfg.region_side_hi = 1200.0;
  }
  Rng rng(777);
  return alarms::generate_alarm_workload(cfg, kUniverse, rng);
}

/// Runs `oracle` on a fresh store and source; returns the events and the
/// store's node-access total afterwards.
std::pair<std::vector<TriggerEvent>, std::uint64_t> run_oracle(
    const OracleCase& c,
    const std::function<std::vector<TriggerEvent>(
        mobility::PositionSource&, alarms::AlarmStore&, const ChurnFn&)>&
        oracle) {
  mobility::RandomWaypointConfig motion;
  motion.vehicle_count = c.vehicles;
  motion.seed = 4242;
  mobility::RandomWaypointSource source(kUniverse, motion);
  alarms::AlarmStore store;
  const std::vector<alarms::SpatialAlarm> initial = workload(c);
  store.install_bulk(initial);

  std::optional<dynamics::AlarmScheduler> scheduler;
  ChurnFn apply_churn;
  if (c.churn) {
    dynamics::ChurnConfig churn;
    churn.installs_per_tick = 4.0;
    churn.removes_per_tick = 3.0;
    churn.subscriber_count = c.vehicles;
    scheduler.emplace(churn, kUniverse, initial, kTicks, /*seed=*/97);
    apply_churn = [&scheduler](std::size_t t, alarms::AlarmStore& s) {
      scheduler->for_each_due(
          static_cast<std::uint64_t>(t), [&s](const dynamics::ChurnEvent& e) {
            if (e.kind == dynamics::ChurnEvent::Kind::kInstall) {
              s.install(e.alarm);
            } else {
              (void)s.uninstall(e.id);
            }
          });
    };
  }
  store.reset_index_node_accesses();
  auto events = oracle(source, store, apply_churn);
  return {std::move(events), store.index_node_accesses()};
}

void expect_matches_serial(const OracleCase& c) {
  SCOPED_TRACE(::testing::Message() << "vehicles=" << c.vehicles
                                    << " churn=" << c.churn
                                    << " dense=" << c.dense);
  auto [expected, reference_accesses] = run_oracle(
      c, [](mobility::PositionSource& source, alarms::AlarmStore& store,
            const ChurnFn& churn) {
        return reference_ground_truth(source, store, kTicks, churn);
      });
  const auto [actual, actual_accesses] = run_oracle(
      c, [](mobility::PositionSource& source, alarms::AlarmStore& store,
            const ChurnFn& churn) {
        return churn ? sim::ground_truth_triggers(source, store, kTicks, churn)
                     : sim::ground_truth_triggers(source, store, kTicks);
      });
  // The index accesses of the store's own installs and removals, with no
  // alarm processing at all.
  const auto [none, churn_accesses] = run_oracle(
      c, [](mobility::PositionSource&, alarms::AlarmStore& store,
            const ChurnFn& churn) {
        for (std::size_t t = 1; churn && t < kTicks; ++t) churn(t, store);
        return std::vector<TriggerEvent>{};
      });
  ASSERT_FALSE(expected.empty());
  // The reference emits each subscriber's pairs in R*-tree visit order;
  // the oracle in alarm order.
  std::stable_sort(expected.begin(), expected.end());
  EXPECT_EQ(actual, expected);
  // The oracle's matches add no R*-tree node access.
  EXPECT_GT(reference_accesses, churn_accesses);
  EXPECT_EQ(actual_accesses, churn_accesses);
  EXPECT_EQ(churn_accesses == 0, !c.churn);
}

TEST(OracleTest, ParallelMatchesSerialReference) {
  // Static workload over whole chunks.
  expect_matches_serial({.vehicles = 1024, .churn = false, .dense = false});
  // Churn: installs and removals between the ticks' match phases.
  expect_matches_serial({.vehicles = 1024, .churn = true, .dense = false});
  // A partial last chunk, with more fires per chunk than the buffers hold.
  expect_matches_serial({.vehicles = 1300, .churn = true, .dense = true});
  // Fewer subscribers than one chunk: a single task, run inline.
  expect_matches_serial({.vehicles = 200, .churn = false, .dense = false});
}

// ---------------------------------------------------------------------------
// Linear-scan reference.

/// Replays fixed positions, one vector per tick.
class ScriptedSource final : public mobility::PositionSource {
 public:
  ScriptedSource(geo::Rect extent, std::vector<std::vector<geo::Point>> ticks)
      : extent_(extent), ticks_(std::move(ticks)) {
    reset();
  }

  void reset() override { load(0); }
  void step() override { load(tick_ + 1); }
  const std::vector<mobility::VehicleSample>& samples() const override {
    return samples_;
  }
  std::size_t vehicle_count() const override { return samples_.size(); }
  double tick_seconds() const override { return 1.0; }
  geo::Rect extent() const override { return extent_; }

 private:
  void load(std::size_t tick) {
    tick_ = tick;
    samples_.clear();
    for (const geo::Point p : ticks_.at(tick)) samples_.push_back({p, 0.0, 0.0});
  }

  geo::Rect extent_;
  std::vector<std::vector<geo::Point>> ticks_;
  std::vector<mobility::VehicleSample> samples_;
  std::size_t tick_ = 0;
};

/// An alarm set and its churn: at tick t, remove the ids in removes[t],
/// then install installs[t].
struct Script {
  geo::Rect extent;
  std::vector<std::vector<geo::Point>> positions;  ///< per tick
  std::vector<alarms::SpatialAlarm> initial;
  std::vector<std::vector<alarms::AlarmId>> removes;       ///< per tick
  std::vector<std::vector<alarms::SpatialAlarm>> installs;  ///< per tick
};

alarms::SpatialAlarm make_alarm(alarms::AlarmId id, geo::Rect region,
                                std::vector<alarms::SubscriberId> subs) {
  alarms::SpatialAlarm a;
  a.id = id;
  a.region = region;
  a.scope = subs.empty()        ? alarms::AlarmScope::kPublic
            : subs.size() == 1 ? alarms::AlarmScope::kPrivate
                               : alarms::AlarmScope::kShared;
  a.owner = subs.empty() ? 0 : subs.front();
  a.subscribers = std::move(subs);
  return a;
}

/// Nested loop over a plain alarm vector: every subscriber against every
/// live alarm in id order, open interior, its own spent set.
std::vector<TriggerEvent> linear_scan(const Script& script) {
  std::vector<alarms::SpatialAlarm> live = script.initial;
  std::set<std::pair<alarms::AlarmId, alarms::SubscriberId>> spent;
  std::vector<TriggerEvent> events;
  for (std::size_t t = 0; t < script.positions.size(); ++t) {
    if (t > 0) {
      for (const alarms::AlarmId id : script.removes[t]) {
        std::erase_if(live, [id](const auto& a) { return a.id == id; });
      }
      live.insert(live.end(), script.installs[t].begin(),
                  script.installs[t].end());
    }
    std::sort(live.begin(), live.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    const auto& points = script.positions[t];
    for (std::size_t v = 0; v < points.size(); ++v) {
      const auto s = static_cast<alarms::SubscriberId>(v);
      const geo::Point p = points[v];
      for (const alarms::SpatialAlarm& a : live) {
        const bool inside = p.x > a.region.lo().x && p.x < a.region.hi().x &&
                            p.y > a.region.lo().y && p.y < a.region.hi().y;
        const bool subscribed =
            a.scope == alarms::AlarmScope::kPublic ||
            std::find(a.subscribers.begin(), a.subscribers.end(), s) !=
                a.subscribers.end();
        if (inside && subscribed && spent.insert({a.id, s}).second) {
          events.push_back({a.id, s, t});
        }
      }
    }
  }
  return events;
}

/// The oracle over the same script, churning an AlarmStore.
std::vector<TriggerEvent> oracle_of(const Script& script) {
  ScriptedSource source(script.extent, script.positions);
  alarms::AlarmStore store;
  store.install_bulk(script.initial);
  const ChurnFn churn = [&script](std::size_t t, alarms::AlarmStore& s) {
    for (const alarms::AlarmId id : script.removes[t]) {
      ASSERT_TRUE(s.uninstall(id));
    }
    for (const alarms::SpatialAlarm& a : script.installs[t]) s.install(a);
  };
  return sim::ground_truth_triggers(source, store, script.positions.size(),
                                    churn);
}

Script hand_placed() {
  using geo::Rect;
  Script s;
  s.extent = Rect(0.0, 0.0, 1000.0, 1000.0);
  // Every initial side is 100 m, so the grid has 10 x 10 cells of 100 m
  // and the multiples of 100 below are cell boundaries.
  s.initial = {
      make_alarm(0, Rect(100, 100, 200, 200), {}),
      make_alarm(1, Rect(150, 150, 250, 250), {0}),
      make_alarm(2, Rect(-150, 100, -50, 200), {0, 1}),   // wholly outside
      make_alarm(3, Rect(950, 500, 1050, 600), {}),      // partly outside
      make_alarm(4, Rect(300, 300, 400, 400), {1}),
  };
  s.positions = {
      // On A0's left edge and a cell boundary; on the corner shared by A0
      // and four cells (inside A1, which v1 does not subscribe to); on
      // A4's left edge.
      {{100, 150}, {200, 200}, {300, 350}},
      // Inside A0 and A1 at once; inside A4; inside A3 on the extent's
      // right edge.
      {{175, 175}, {350, 350}, {1000, 550}},
      // After tick 2's churn: A4 replaced by public A5 on the same region,
      // A0 re-installed under the same id elsewhere, private to v2.
      {{175, 175}, {350, 350}, {550, 550}},
      // Outside the extent, inside A2 (the source contract keeps positions
      // inside; the grid's clamp must not lose them anyway); on the new
      // A0's right edge; on its corner.
      {{-100, 150}, {600, 550}, {500, 500}},
  };
  s.removes = {{}, {}, {4, 0}, {}};
  s.installs = {{},
                {},
                {make_alarm(5, Rect(300, 300, 400, 400), {}),
                 make_alarm(0, Rect(500, 500, 600, 600), {2})},
                {}};
  return s;
}

Script empty_start() {
  using geo::Rect;
  Script s;
  s.extent = Rect(0.0, 0.0, 1000.0, 1000.0);
  s.positions = {
      {{250, 250}, {500, 250}},
      {{250, 250}, {500, 250}},  // v1 on the new alarm's right edge
      {{250, 250}, {500, 250}},
  };
  s.removes = {{}, {}, {}};
  s.installs = {{},
                {make_alarm(7, Rect(0, 0, 500, 500), {})},
                {make_alarm(8, Rect(400, 200, 600, 300), {1})}};
  return s;
}

/// Alarms and positions on a 25 m lattice, so positions land on alarm edges
/// and corners; some alarms reach past the extent. Each tick removes and
/// installs a few alarms, sometimes re-installing a removed id elsewhere.
Script seeded(std::uint64_t seed, std::size_t initial_alarms) {
  Rng rng(seed);
  constexpr std::size_t kVehicles = 6;
  constexpr std::size_t kScriptTicks = 40;
  const auto lattice = [&rng](std::int64_t lo, std::int64_t hi) {
    return 25.0 * static_cast<double>(rng.uniform_int(lo, hi));
  };
  alarms::AlarmId next_id = 0;
  const auto random_alarm = [&](alarms::AlarmId id) {
    const double x = lattice(-8, 36);
    const double y = lattice(-8, 36);
    const geo::Rect region(x, y, x + lattice(1, 10), y + lattice(1, 10));
    std::vector<alarms::SubscriberId> subs;
    if (!rng.chance(0.3)) {
      const std::size_t n = 1 + rng.index(3);
      for (std::size_t i = 0; i < n; ++i) {
        const auto v = static_cast<alarms::SubscriberId>(rng.index(kVehicles));
        if (std::find(subs.begin(), subs.end(), v) == subs.end()) {
          subs.push_back(v);
        }
      }
    }
    return make_alarm(id, region, std::move(subs));
  };

  Script s;
  s.extent = geo::Rect(0.0, 0.0, 800.0, 800.0);
  std::vector<alarms::AlarmId> live;
  for (std::size_t i = 0; i < initial_alarms; ++i) {
    s.initial.push_back(random_alarm(next_id));
    live.push_back(next_id++);
  }
  s.removes.resize(kScriptTicks);
  s.installs.resize(kScriptTicks);
  for (std::size_t t = 0; t < kScriptTicks; ++t) {
    std::vector<geo::Point> points;
    for (std::size_t v = 0; v < kVehicles; ++v) {
      points.push_back({lattice(0, 32), lattice(0, 32)});
    }
    s.positions.push_back(std::move(points));
    if (t == 0) continue;
    std::vector<alarms::AlarmId> reinstalled;
    for (std::size_t k = rng.index(3); k > 0 && !live.empty(); --k) {
      const std::size_t i = rng.index(live.size());
      const alarms::AlarmId id = live[i];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      s.removes[t].push_back(id);
      if (rng.chance(0.3)) {  // the same id, elsewhere, in the same tick
        s.installs[t].push_back(random_alarm(id));
        reinstalled.push_back(id);
      }
    }
    live.insert(live.end(), reinstalled.begin(), reinstalled.end());
    for (std::size_t k = rng.index(4); k > 0; --k) {
      s.installs[t].push_back(random_alarm(next_id));
      live.push_back(next_id++);
    }
  }
  return s;
}

/// True when some subscriber fired two or more alarms in one tick.
bool has_multi_fire(const std::vector<TriggerEvent>& events) {
  return std::adjacent_find(events.begin(), events.end(),
                            [](const TriggerEvent& a, const TriggerEvent& b) {
                              return a.tick == b.tick &&
                                     a.subscriber == b.subscriber;
                            }) != events.end();
}

TEST(OracleTest, MatchesLinearScanReference) {
  {
    SCOPED_TRACE("hand-placed");
    const Script s = hand_placed();
    const std::vector<TriggerEvent> expected = {
        {0, 0, 1}, {1, 0, 1}, {4, 1, 1}, {3, 2, 1},
        {5, 1, 2}, {0, 2, 2}, {2, 0, 3}};
    EXPECT_EQ(linear_scan(s), expected);
    EXPECT_EQ(oracle_of(s), expected);
  }
  {
    SCOPED_TRACE("empty initial set");
    const Script s = empty_start();
    const std::vector<TriggerEvent> expected = {{7, 0, 1}, {8, 1, 2}};
    EXPECT_EQ(linear_scan(s), expected);
    EXPECT_EQ(oracle_of(s), expected);
  }
  bool multi_fire = false;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const std::size_t initial : {std::size_t{0}, std::size_t{40}}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " initial=" << initial);
      const Script s = seeded(seed, initial);
      const std::vector<TriggerEvent> expected = linear_scan(s);
      EXPECT_FALSE(expected.empty());
      EXPECT_EQ(oracle_of(s), expected);
      multi_fire = multi_fire || has_multi_fire(expected);
    }
  }
  EXPECT_TRUE(multi_fire);
}

}  // namespace
}  // namespace salarm
