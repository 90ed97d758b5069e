// The per-cell pyramid build memo of sim::Server (DESIGN.md "GBSR / PBSR").
//
// A build is a pure function of (cell, ordered regions, configuration), so
// a server that answers pyramid grants from its memo must hand out exactly
// what a server that has never seen a contact would: the same bitmap, bit
// for bit, and the same server_region_ops. The test drives one long-lived
// server through a seeded contact sequence over several cells and
// subscribers, with the store changing underneath it, and compares every
// grant against a server built fresh for that one contact over the same
// store.
//
// The server also writes and restores its own shard checkpoint (DESIGN.md
// §10); the ServerCheckpointTest cases pin that round trip.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "common/rng.h"
#include "geometry/rect.h"
#include "grid/grid_overlay.h"
#include "saferegion/pyramid.h"
#include "saferegion/wire_format.h"
#include "sim/metrics.h"
#include "sim/server.h"

namespace salarm {
namespace {

using alarms::SubscriberId;
using geo::Point;
using geo::Rect;

const Rect kUniverse(0.0, 0.0, 6000.0, 6000.0);
constexpr SubscriberId kSubscribers = 6;
/// Lower-left corners of the 1 km cells the random contacts visit.
const Point kCells[] = {{0, 0}, {1000, 0}, {0, 1000}, {3000, 4000}};

saferegion::PyramidConfig pyramid(int height) {
  saferegion::PyramidConfig config;
  config.height = height;
  return config;
}

/// 900 alarms over six subscribers, 30% of them public.
std::vector<alarms::SpatialAlarm> alarm_workload() {
  alarms::AlarmWorkloadConfig cfg;
  cfg.alarm_count = 900;
  cfg.subscriber_count = kSubscribers;
  cfg.public_fraction = 0.3;
  Rng rng(5);
  return alarms::generate_alarm_workload(cfg, kUniverse, rng);
}

/// A position inside one of kCells, drawn from rng.
Point random_position(Rng& rng) {
  const Point corner = kCells[rng.index(std::size(kCells))];
  return {corner.x + rng.uniform(1.0, 999.0),
          corner.y + rng.uniform(1.0, 999.0)};
}

class PyramidGrantMemoTest : public ::testing::Test {
 protected:
  PyramidGrantMemoTest() { store.install_bulk(alarm_workload()); }

  /// The grant of the long-lived server against a cold one's.
  void contact(SubscriberId s, Point p, const saferegion::PyramidConfig& c) {
    SCOPED_TRACE(::testing::Message() << "contact " << contacts << " by "
                                      << s << " at (" << p.x << ", " << p.y
                                      << "), height " << c.height);
    const std::uint64_t before = metrics.server_region_ops;
    const auto bitmap = warm.compute_pyramid_region(s, p, c);
    const std::uint64_t ops = metrics.server_region_ops - before;

    sim::Metrics cold_metrics;
    sim::Server cold(store, grid, cold_metrics);
    const auto expected = cold.compute_pyramid_region(s, p, c);
    EXPECT_TRUE(bitmap == expected);
    EXPECT_EQ(bitmap.bit_size(), expected.bit_size());
    EXPECT_EQ(bitmap.serialize(), expected.serialize());
    EXPECT_EQ(ops, cold_metrics.server_region_ops);
    ++contacts;
  }

  void random_contacts(Rng& rng, int count) {
    for (int i = 0; i < count; ++i) {
      const Point p = random_position(rng);
      const auto s = static_cast<SubscriberId>(rng.index(kSubscribers));
      contact(s, p, pyramid(rng.chance(0.5) ? 3 : 5));
    }
  }

  alarms::AlarmStore store;
  grid::GridOverlay grid = grid::GridOverlay::with_cell_area(kUniverse, 1.0e6);
  sim::Metrics metrics;
  sim::Server warm{store, grid, metrics};
  int contacts = 0;
};

TEST_F(PyramidGrantMemoTest, WarmServerGrantsWhatAColdServerBuilds) {
  Rng rng(17);
  random_contacts(rng, 300);

  // Two configurations alternating over one subscriber in one cell: the
  // regions are equal, so only the configuration tells the builds apart.
  const Point p0{420.0, 610.0};
  for (int k = 0; k < 8; ++k) contact(0, p0, pyramid(k % 2 == 0 ? 3 : 5));

  // A public install inside the memoized cell, then the removal of another
  // public alarm there: the region count returns to what it was, but the
  // regions differ.
  const Rect cell0 = grid.cell_rect(grid.cell_of(p0));
  const auto publics = store.public_in_window(cell0);
  ASSERT_FALSE(publics.empty());
  const alarms::AlarmId removed = publics.front()->id;
  alarms::SpatialAlarm added;
  added.id = 100000;
  added.scope = alarms::AlarmScope::kPublic;
  added.region = Rect(610.0, 180.0, 790.0, 330.0);
  for (SubscriberId s = 0; s < kSubscribers; ++s) contact(s, p0, pyramid(5));
  store.install(added);
  for (SubscriberId s = 0; s < kSubscribers; ++s) contact(s, p0, pyramid(5));
  ASSERT_TRUE(store.uninstall(removed));
  for (SubscriberId s = 0; s < kSubscribers; ++s) {
    contact(s, p0, pyramid(5));
    contact(s, p0, pyramid(3));
  }
  random_contacts(rng, 100);

  // A report that spends a public alarm: that subscriber's regions in the
  // cell lose it, nobody else's do.
  const Rect cell1(1000.0, 0.0, 2000.0, 1000.0);
  const auto publics1 = store.public_in_window(cell1);
  ASSERT_FALSE(publics1.empty());
  const Rect spent = publics1.front()->region;
  for (SubscriberId s = 0; s < kSubscribers; ++s) {
    contact(s, {1500.0, 500.0}, pyramid(5));
  }
  const auto fired = warm.handle_position_update(2, spent.center(), 1);
  ASSERT_FALSE(fired.empty());
  ASSERT_TRUE(store.spent(publics1.front()->id, 2));
  for (SubscriberId s = 0; s < kSubscribers; ++s) {
    contact(s, {1500.0, 500.0}, pyramid(5));
  }
  random_contacts(rng, 100);

  // A crash, then the restore: the store is rebuilt alarm by alarm, so
  // its visit order may differ from the bulk-loaded one.
  const wire::ShardCheckpointMsg saved = warm.checkpoint(1);
  warm.crash();
  warm.restore(saved);
  random_contacts(rng, 300);
}

// ---------------------------------------------------------------------------
// The public-bitmap cache (paper §4.2), asked for per grant: a cached grant
// intersects the cell's subscriber-independent public bitmap with the
// subscriber's private one. It must never be finer than the exact build,
// must rebuild a cell's public bitmap after a public install there, must
// fall back to the exact build for a subscriber who has spent a public
// alarm in the cell, must restart cold after a crash, and must leave the
// uncached grants of the same server untouched.
// ---------------------------------------------------------------------------

/// One pyramid grant and the server_region_ops it charged.
struct Grant {
  saferegion::PyramidBitmap bitmap;
  std::uint64_t ops = 0;
};

Grant take_grant(sim::Server& server, const sim::Metrics& metrics,
                 SubscriberId s, Point p, bool cached, int height = 5) {
  const std::uint64_t before = metrics.server_region_ops;
  auto bitmap = server.compute_pyramid_region(s, p, pyramid(height), cached);
  return {std::move(bitmap), metrics.server_region_ops - before};
}

void expect_same_grant(const Grant& got, const Grant& want) {
  EXPECT_TRUE(got.bitmap == want.bitmap);
  EXPECT_EQ(got.bitmap.serialize(), want.bitmap.serialize());
  EXPECT_EQ(got.ops, want.ops);
}

/// A uniform draw from the interior of r.
Point random_interior(Rng& rng, const Rect& r) {
  return {rng.uniform(r.lo().x, r.hi().x), rng.uniform(r.lo().y, r.hi().y)};
}

/// One server over alarm_workload(), with dynamics on when asked.
struct CacheWorld {
  explicit CacheWorld(bool dynamics = false) {
    store.install_bulk(alarm_workload());
    if (dynamics) server.enable_dynamics(kSubscribers);
  }

  Grant grant(SubscriberId s, Point p, bool cached, int height = 5) {
    return take_grant(server, metrics, s, p, cached, height);
  }

  alarms::AlarmStore store;
  grid::GridOverlay grid = grid::GridOverlay::with_cell_area(kUniverse, 1.0e6);
  sim::Metrics metrics;
  sim::Server server{store, grid, metrics};
};

TEST(PublicBitmapCacheTest, CachedSafePointsAreSafeInTheExactBuild) {
  // A cached safe point lies in no relevant alarm's interior. Without a
  // bit budget it is also safe in the exact build; under one it need not
  // be, since the exact build over all regions may stop refining a level
  // sooner than the builds over either half.
  saferegion::PyramidConfig unbudgeted = pyramid(5);
  unbudgeted.max_bits = 0;
  CacheWorld w;
  Rng rng(23);
  std::size_t safe_samples = 0;
  for (int i = 0; i < 400; ++i) {
    const Point p = random_position(rng);
    const auto s = static_cast<SubscriberId>(rng.index(kSubscribers));
    const auto config = i % 2 == 0 ? unbudgeted : pyramid(5);
    const auto cached = w.server.compute_pyramid_region(s, p, config, true);
    sim::Metrics cold_metrics;
    sim::Server cold(w.store, w.grid, cold_metrics);
    const auto exact = cold.compute_pyramid_region(s, p, config);
    const auto relevant = w.store.relevant_in_window(exact.cell(), s);
    for (int k = 0; k < 100; ++k) {
      const Point q = random_interior(rng, exact.cell());
      if (!cached.locate(q).safe) continue;
      ++safe_samples;
      SCOPED_TRACE(::testing::Message() << "subscriber " << s << " at ("
                                        << q.x << ", " << q.y << ")");
      EXPECT_TRUE(std::ranges::none_of(relevant, [&](const auto* a) {
        return a->region.interior_contains(q);
      }));
      if (config == unbudgeted) {
        EXPECT_TRUE(exact.locate(q).safe);
      }
    }
  }
  EXPECT_GT(safe_samples, 2000u);
}

TEST(PublicBitmapCacheTest, PublicInstallRebuildsTheCellsPublicBitmap) {
  // Equal stores and equal grant histories, except that only `warm` has
  // built the cell's public bitmap before the install. A pyramid grant
  // records the cell either way, so the install costs both the same.
  CacheWorld warm(/*dynamics=*/true);
  CacheWorld reference(/*dynamics=*/true);
  const Point p{420.0, 610.0};
  const SubscriberId s = 1;
  const Grant before = warm.grant(s, p, /*cached=*/true);
  (void)reference.grant(s, p, /*cached=*/false);

  alarms::SpatialAlarm added;
  added.id = 100000;
  added.scope = alarms::AlarmScope::kPublic;
  added.region = Rect(610.0, 180.0, 790.0, 330.0);
  Rng rng(29);
  std::vector<Point> inside;
  for (int k = 0; k < 200; ++k) {
    inside.push_back(random_interior(rng, added.region));
  }
  ASSERT_TRUE(std::ranges::any_of(
      inside, [&](Point q) { return before.bitmap.locate(q).safe; }));
  warm.server.install_alarm(added, 1);
  reference.server.install_alarm(added, 1);

  const Grant after = warm.grant(s, p, /*cached=*/true);
  expect_same_grant(after, reference.grant(s, p, /*cached=*/true));
  for (const Point q : inside) EXPECT_FALSE(after.bitmap.locate(q).safe);
}

TEST(PublicBitmapCacheTest, SpentPublicAlarmGetsTheExactBuild) {
  CacheWorld w;
  const Point p{1500.0, 500.0};
  const Rect cell = w.grid.cell_rect(w.grid.cell_of(p));
  const auto publics = w.store.public_in_window(cell);
  ASSERT_FALSE(publics.empty());
  const std::size_t public_count = publics.size();
  const alarms::SpatialAlarm& spent = *publics.front();
  const SubscriberId s = 2;
  (void)w.grant(s, p, /*cached=*/true);  // builds the cell's public bitmap
  (void)w.server.handle_position_update(s, spent.region.center(), 1);
  ASSERT_TRUE(w.store.spent(spent.id, s));

  const Grant cached = w.grant(s, p, /*cached=*/true);
  sim::Metrics cold_metrics;
  sim::Server cold(w.store, w.grid, cold_metrics);
  const Grant exact = take_grant(cold, cold_metrics, s, p, /*cached=*/false);
  EXPECT_TRUE(cached.bitmap == exact.bitmap);
  EXPECT_EQ(cached.bitmap.serialize(), exact.bitmap.serialize());
  // Plus one op per public alarm of the cell: the scan that found the
  // spent one.
  EXPECT_EQ(cached.ops, exact.ops + public_count);
}

TEST(PublicBitmapCacheTest, CrashRestartsTheCacheCold) {
  CacheWorld w(/*dynamics=*/true);
  Rng rng(31);
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<SubscriberId>(rng.index(kSubscribers));
    (void)w.grant(s, random_position(rng), /*cached=*/true);
  }
  const auto publics = w.store.public_in_window(Rect(0, 0, 1000, 1000));
  ASSERT_FALSE(publics.empty());
  (void)w.server.handle_position_update(3, publics.front()->region.center(),
                                        2);
  const wire::ShardCheckpointMsg saved = w.server.checkpoint(2);
  w.server.crash();
  w.server.restore(saved);

  alarms::AlarmStore fresh_store;
  sim::Metrics fresh_metrics;
  sim::Server fresh(fresh_store, w.grid, fresh_metrics);
  fresh.enable_dynamics(kSubscribers);
  fresh.restore(saved);
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<SubscriberId>(rng.index(kSubscribers));
    const Point p = random_position(rng);
    SCOPED_TRACE(::testing::Message() << "contact " << i);
    expect_same_grant(w.grant(s, p, /*cached=*/true),
                      take_grant(fresh, fresh_metrics, s, p, /*cached=*/true));
  }
}

TEST(PublicBitmapCacheTest, InterleavedKindsMatchServersOfOneKind) {
  // Three servers over one store: `mixed` serves both kinds of call, the
  // others one kind each. Both heights alternate, so the cache also meets
  // entries built under the other configuration.
  CacheWorld w;
  sim::Metrics uncached_metrics;
  sim::Server uncached(w.store, w.grid, uncached_metrics);
  sim::Metrics cached_metrics;
  sim::Server cached(w.store, w.grid, cached_metrics);
  Rng rng(37);
  for (int i = 0; i < 400; ++i) {
    const auto s = static_cast<SubscriberId>(rng.index(kSubscribers));
    const Point p = random_position(rng);
    const bool use_cache = rng.chance(0.5);
    const int height = rng.chance(0.5) ? 3 : 5;
    SCOPED_TRACE(::testing::Message() << "contact " << i);
    const Grant got = w.grant(s, p, use_cache, height);
    expect_same_grant(
        got, use_cache
                 ? take_grant(cached, cached_metrics, s, p, true, height)
                 : take_grant(uncached, uncached_metrics, s, p, false, height));
    if (i % 40 == 20) {
      // Spend a public alarm of this cell for s, so later cached grants
      // there take the exact build.
      const auto publics =
          w.store.public_in_window(w.grid.cell_rect(w.grid.cell_of(p)));
      if (!publics.empty()) {
        (void)w.server.handle_position_update(
            s, publics.front()->region.center(), static_cast<std::uint64_t>(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The server's own checkpoint (failover tier, DESIGN.md §10): restoring a
// checkpoint rebuilds exactly the state it was taken from, and replaying a
// journal record leaves exactly the state of the live mutation it records.
// ---------------------------------------------------------------------------

alarms::SpatialAlarm alarm_at(alarms::AlarmId id, alarms::AlarmScope scope,
                              std::vector<SubscriberId> subscribers,
                              const Rect& region) {
  return {id, scope, subscribers.empty() ? 0 : subscribers.front(), region,
          std::move(subscribers), "alert " + std::to_string(id)};
}

/// One shard-sized engine with dynamics on over a hand-placed alarm set:
/// a public alarm in cell (0, 0), a private one in cell (1, 0) and a
/// shared one in cell (2, 2), all loaded at run start.
struct DynamicServer {
  DynamicServer() {
    store.install_bulk(
        {alarm_at(1, alarms::AlarmScope::kPublic, {}, Rect(100, 100, 300, 300)),
         alarm_at(2, alarms::AlarmScope::kPrivate, {1},
                  Rect(1200, 200, 1400, 400)),
         alarm_at(3, alarms::AlarmScope::kShared, {0, 2},
                  Rect(2500, 2500, 2700, 2700))});
    server.enable_dynamics(kSubscribers);
  }

  std::vector<std::uint8_t> checkpoint_bytes(std::uint64_t tick) const {
    return wire::encode(server.checkpoint(tick));
  }

  alarms::AlarmStore store;
  grid::GridOverlay grid = grid::GridOverlay::with_cell_area(kUniverse, 1.0e6);
  sim::Metrics metrics;
  sim::Server server{store, grid, metrics};
};

TEST(ServerCheckpointTest, RestoredCheckpointIsByteIdentical) {
  DynamicServer w;
  sim::Server& server = w.server;
  // Grants of three kinds (none of them under a later install, which
  // would revoke it), installs at known ticks, one removal of an
  // online-installed alarm and one of an initial alarm, and spent pairs.
  (void)server.compute_pyramid_region(0, {500, 500}, pyramid(3));
  (void)server.push_alarms(2, {1500, 500});
  (void)server.compute_safe_period(4, {500, 800}, 20.0, 1.0);
  server.install_alarm(
      alarm_at(10, alarms::AlarmScope::kPublic, {}, Rect(3100, 100, 3300, 300)),
      3);
  server.install_alarm(alarm_at(11, alarms::AlarmScope::kShared, {1, 3},
                                Rect(4100, 1100, 4300, 1300)),
                       7);
  ASSERT_TRUE(server.remove_alarm(10, 9));
  ASSERT_TRUE(server.remove_alarm(3, 10));
  EXPECT_EQ(server.handle_position_update(1, {1300, 300}, 11),
            (std::vector<alarms::AlarmId>{2}));
  EXPECT_EQ(server.handle_position_update(3, {4200, 1200}, 11),
            (std::vector<alarms::AlarmId>{11}));
  EXPECT_EQ(server.handle_position_update(5, {200, 200}, 11),
            (std::vector<alarms::AlarmId>{1}));

  const wire::ShardCheckpointMsg before = server.checkpoint(12);
  // Every section is populated, so the comparison below covers all four.
  ASSERT_EQ(before.alarms.size(), 3u);
  EXPECT_EQ(before.alarms.back().alarm.id, 11u);
  EXPECT_EQ(before.alarms.back().installed_at, 7u);
  ASSERT_EQ(before.graveyard.size(), 2u);
  EXPECT_EQ(before.graveyard[0].alarm.id, 10u);
  EXPECT_EQ(before.graveyard[0].installed_at, 3u);
  EXPECT_EQ(before.graveyard[0].removed_at, 9u);
  EXPECT_EQ(before.graveyard[1].installed_at, 0u);
  EXPECT_EQ(before.spent.size(), 3u);
  EXPECT_EQ(before.grants.size(), 3u);

  const std::vector<std::uint8_t> bytes = wire::encode(before);
  server.crash();
  EXPECT_TRUE(server.checkpoint(12).alarms.empty());
  server.restore(wire::decode<wire::ShardCheckpointMsg>(bytes));
  EXPECT_EQ(w.checkpoint_bytes(12), bytes);
}

TEST(ServerCheckpointTest, ReplayLeavesTheLiveMutationsCheckpoint) {
  DynamicServer live;
  DynamicServer replayed;
  ASSERT_EQ(live.checkpoint_bytes(0), replayed.checkpoint_bytes(0));

  const alarms::SpatialAlarm added = alarm_at(
      20, alarms::AlarmScope::kPrivate, {4}, Rect(2100, 3100, 2300, 3300));
  wire::JournalRecordMsg install;
  install.kind = wire::JournalRecordMsg::Kind::kInstall;
  install.tick = 5;
  install.alarm = added;
  install.alarm_id = added.id;
  live.server.install_alarm(added, 5);
  replayed.server.replay(install);
  EXPECT_EQ(replayed.checkpoint_bytes(5), live.checkpoint_bytes(5));

  // The online-installed alarm keeps its install tick in the tomb; an
  // initial alarm's tomb starts at 0.
  for (const alarms::AlarmId id : {alarms::AlarmId{20}, alarms::AlarmId{3}}) {
    wire::JournalRecordMsg remove;
    remove.kind = wire::JournalRecordMsg::Kind::kRemove;
    remove.tick = 8;
    remove.alarm_id = id;
    ASSERT_TRUE(live.server.remove_alarm(id, 8));
    replayed.server.replay(remove);
    EXPECT_EQ(replayed.checkpoint_bytes(8), live.checkpoint_bytes(8));
  }
  // Replaying a removal of an absent alarm changes nothing, like the live
  // removal that finds nothing.
  wire::JournalRecordMsg absent;
  absent.kind = wire::JournalRecordMsg::Kind::kRemove;
  absent.tick = 8;
  absent.alarm_id = 3;
  EXPECT_FALSE(live.server.remove_alarm(3, 8));
  replayed.server.replay(absent);
  EXPECT_EQ(replayed.checkpoint_bytes(8), live.checkpoint_bytes(8));

  wire::JournalRecordMsg spent;
  spent.kind = wire::JournalRecordMsg::Kind::kSpent;
  spent.tick = 9;
  spent.alarm_id = 1;
  spent.subscriber = 2;
  EXPECT_EQ(live.server.handle_position_update(2, {150, 250}, 9),
            (std::vector<alarms::AlarmId>{1}));
  replayed.server.replay(spent);
  const wire::ShardCheckpointMsg cp = live.server.checkpoint(9);
  EXPECT_EQ(cp.graveyard.size(), 2u);
  EXPECT_EQ(cp.spent.size(), 1u);
  EXPECT_EQ(replayed.checkpoint_bytes(9), wire::encode(cp));
}

}  // namespace
}  // namespace salarm
