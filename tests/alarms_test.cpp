#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "alarms/spatial_alarm.h"
#include "common/error.h"
#include "common/rng.h"

namespace salarm::alarms {
namespace {

using geo::Point;
using geo::Rect;

SpatialAlarm make_private(AlarmId id, SubscriberId owner, const Rect& region) {
  SpatialAlarm a;
  a.id = id;
  a.scope = AlarmScope::kPrivate;
  a.owner = owner;
  a.region = region;
  a.subscribers = {owner};
  return a;
}

SpatialAlarm make_public(AlarmId id, const Rect& region) {
  SpatialAlarm a;
  a.id = id;
  a.scope = AlarmScope::kPublic;
  a.region = region;
  return a;
}

SpatialAlarm make_shared(AlarmId id, SubscriberId owner,
                         std::vector<SubscriberId> subs, const Rect& region) {
  SpatialAlarm a;
  a.id = id;
  a.scope = AlarmScope::kShared;
  a.owner = owner;
  a.region = region;
  a.subscribers = std::move(subs);
  return a;
}

TEST(AlarmStoreTest, InstallValidation) {
  AlarmStore store;
  store.install(make_private(0, 1, Rect(0, 0, 10, 10)));
  // Duplicate ids rejected.
  EXPECT_THROW(store.install(make_private(0, 1, Rect(0, 0, 1, 1))),
               salarm::PreconditionError);
  // Region must have positive area.
  EXPECT_THROW(store.install(make_private(1, 1, Rect(0, 0, 0, 10))),
               salarm::PreconditionError);
  // Public alarms with subscriber lists rejected.
  SpatialAlarm bad = make_public(1, Rect(0, 0, 1, 1));
  bad.subscribers = {3};
  EXPECT_THROW(store.install(bad), salarm::PreconditionError);
  // Non-public without subscribers rejected.
  SpatialAlarm empty = make_private(1, 1, Rect(0, 0, 1, 1));
  empty.subscribers.clear();
  EXPECT_THROW(store.install(empty), salarm::PreconditionError);
}

TEST(AlarmStoreTest, SparseIdsAreFirstClass) {
  // The cluster tier installs per-shard slices of a global id space: ids
  // may be any unique subset, in any order.
  AlarmStore store;
  store.install(make_private(5, 1, Rect(0, 0, 10, 10)));
  store.install(make_public(2, Rect(20, 20, 30, 30)));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.installed(5));
  EXPECT_TRUE(store.installed(2));
  EXPECT_FALSE(store.installed(0));
  EXPECT_FALSE(store.installed(100));
  EXPECT_EQ(store.alarm(5).id, 5u);
  EXPECT_EQ(store.alarm(2).id, 2u);
  EXPECT_THROW(store.alarm(0), salarm::PreconditionError);

  const auto hits = store.relevant_in_window(Rect(0, 0, 50, 50), 1);
  ASSERT_EQ(hits.size(), 2u);

  AlarmStore bulk;
  bulk.install_bulk({make_public(9, Rect(0, 0, 1, 1)),
                     make_public(3, Rect(2, 2, 3, 3))});
  EXPECT_TRUE(bulk.installed(9));
  EXPECT_TRUE(bulk.installed(3));
  EXPECT_TRUE(bulk.uninstall(9));
  EXPECT_FALSE(bulk.installed(9));
  EXPECT_FALSE(bulk.uninstall(9));
  EXPECT_TRUE(bulk.installed(3));
}

TEST(AlarmStoreTest, RelevanceByScope) {
  AlarmStore store;
  store.install(make_private(0, 1, Rect(0, 0, 10, 10)));
  store.install(make_shared(1, 1, {1, 2, 3}, Rect(0, 0, 10, 10)));
  store.install(make_public(2, Rect(0, 0, 10, 10)));

  EXPECT_TRUE(store.relevant(store.alarm(0), 1));
  EXPECT_FALSE(store.relevant(store.alarm(0), 2));
  EXPECT_TRUE(store.relevant(store.alarm(1), 2));
  EXPECT_TRUE(store.relevant(store.alarm(1), 3));
  EXPECT_FALSE(store.relevant(store.alarm(1), 4));
  EXPECT_TRUE(store.relevant(store.alarm(2), 999));  // public: everyone
}

TEST(AlarmStoreTest, ProcessPositionFiresAndSpends) {
  AlarmStore store;
  store.install(make_private(0, 7, Rect(0, 0, 10, 10)));
  store.install(make_public(1, Rect(5, 5, 20, 20)));
  std::vector<TriggerEvent> log;

  // Subscriber 7 strictly inside both regions: both fire.
  auto fired = store.process_position(7, {6, 6}, 3, &log);
  std::sort(fired.begin(), fired.end());
  EXPECT_EQ(fired, (std::vector<AlarmId>{0, 1}));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].tick, 3u);

  // One-shot: the same position no longer fires anything for 7.
  EXPECT_TRUE(store.process_position(7, {6, 6}, 4, &log).empty());
  EXPECT_TRUE(store.spent(0, 7));
  EXPECT_TRUE(store.spent(1, 7));

  // A different subscriber only gets the public alarm.
  fired = store.process_position(8, {6, 6}, 5, nullptr);
  EXPECT_EQ(fired, (std::vector<AlarmId>{1}));
  EXPECT_FALSE(store.spent(0, 8));
}

TEST(AlarmStoreTest, BoundaryDoesNotTriggerOpenInterior) {
  // Trigger semantics are open-interior: touching the boundary is safe,
  // one step inside fires.
  AlarmStore store;
  store.install(make_public(0, Rect(0, 0, 10, 10)));
  EXPECT_TRUE(store.process_position(1, {10, 10}, 0, nullptr).empty());
  EXPECT_TRUE(store.process_position(1, {10, 5}, 0, nullptr).empty());
  EXPECT_EQ(store.process_position(1, {9.99, 5}, 1, nullptr).size(), 1u);
}

TEST(AlarmStoreTest, ResetTriggersRestoresRelevance) {
  AlarmStore store;
  store.install(make_public(0, Rect(0, 0, 10, 10)));
  (void)store.process_position(1, {5, 5}, 0, nullptr);
  EXPECT_TRUE(store.spent(0, 1));
  store.reset_triggers();
  EXPECT_FALSE(store.spent(0, 1));
  EXPECT_EQ(store.process_position(1, {5, 5}, 0, nullptr).size(), 1u);
}

TEST(AlarmStoreTest, UninstallRemovesFromQueries) {
  AlarmStore store;
  store.install(make_public(0, Rect(0, 0, 10, 10)));
  store.install(make_public(1, Rect(20, 20, 30, 30)));
  EXPECT_TRUE(store.uninstall(0));
  EXPECT_FALSE(store.uninstall(0));  // already gone
  EXPECT_FALSE(store.uninstall(99));
  EXPECT_TRUE(store.process_position(1, {5, 5}, 0, nullptr).empty());
  EXPECT_THROW(store.alarm(0), salarm::PreconditionError);
  EXPECT_EQ(store.relevant_in_window(Rect(0, 0, 50, 50), 1).size(), 1u);
}

TEST(AlarmStoreTest, BulkInstallMatchesIncremental) {
  Rng rng(5);
  const Rect universe(0, 0, 10000, 10000);
  AlarmWorkloadConfig cfg;
  cfg.alarm_count = 400;
  cfg.subscriber_count = 50;
  const auto workload = generate_alarm_workload(cfg, universe, rng);

  AlarmStore incremental;
  for (auto a : workload) incremental.install(std::move(a));
  AlarmStore bulk;
  bulk.install_bulk(workload);

  Rng qrng(6);
  for (int q = 0; q < 30; ++q) {
    const Point c{qrng.uniform(0, 10000), qrng.uniform(0, 10000)};
    const auto window = Rect::centered_square(c, 2000).intersection(universe);
    const auto s = static_cast<SubscriberId>(qrng.index(50));
    const auto a = incremental.relevant_in_window(*window, s);
    const auto b = bulk.relevant_in_window(*window, s);
    std::set<AlarmId> ia, ib;
    for (const auto* x : a) ia.insert(x->id);
    for (const auto* x : b) ib.insert(x->id);
    EXPECT_EQ(ia, ib);
  }
  // Bulk store stays mutable.
  EXPECT_TRUE(bulk.uninstall(0));
  bulk.move_alarm(1, Rect(10, 10, 60, 60));
}

TEST(AlarmStoreTest, BulkInstallValidation) {
  AlarmStore store;
  store.install(make_public(0, Rect(0, 0, 10, 10)));
  EXPECT_THROW(store.install_bulk({make_public(1, Rect(0, 0, 5, 5))}),
               salarm::PreconditionError);  // store not empty
  AlarmStore fresh;
  EXPECT_THROW(fresh.install_bulk({make_public(3, Rect(0, 0, 5, 5)),
                                   make_public(3, Rect(1, 1, 5, 5))}),
               salarm::PreconditionError);  // duplicate ids
}

TEST(AlarmStoreTest, MoveAlarmFollowsTarget) {
  AlarmStore store;
  store.install(make_public(0, Rect(0, 0, 10, 10)));
  // Before the move: fires inside the old region.
  EXPECT_EQ(store.process_position(1, {5, 5}, 0, nullptr).size(), 1u);
  store.move_alarm(0, Rect(100, 100, 110, 110));
  EXPECT_EQ(store.alarm(0).region, Rect(100, 100, 110, 110));
  // Old location no longer covered for a fresh subscriber.
  EXPECT_TRUE(store.process_position(2, {5, 5}, 1, nullptr).empty());
  // New location fires for subscriber 2 ...
  EXPECT_EQ(store.process_position(2, {105, 105}, 2, nullptr).size(), 1u);
  // ... but not for subscriber 1, whose trigger state was preserved.
  EXPECT_TRUE(store.process_position(1, {105, 105}, 3, nullptr).empty());
  // Nearest-distance queries see the new region.
  EXPECT_DOUBLE_EQ(store.nearest_relevant_distance({100, 105}, 3), 0.0);
}

TEST(AlarmStoreTest, MoveAlarmValidation) {
  AlarmStore store;
  store.install(make_public(0, Rect(0, 0, 10, 10)));
  EXPECT_THROW(store.move_alarm(5, Rect(0, 0, 1, 1)),
               salarm::PreconditionError);
  EXPECT_THROW(store.move_alarm(0, Rect(0, 0, 0, 10)),
               salarm::PreconditionError);
  store.uninstall(0);
  EXPECT_THROW(store.move_alarm(0, Rect(0, 0, 1, 1)),
               salarm::PreconditionError);
}

TEST(AlarmStoreTest, RelevantInWindowFiltersSpentAndScope) {
  AlarmStore store;
  store.install(make_private(0, 1, Rect(0, 0, 10, 10)));
  store.install(make_private(1, 2, Rect(0, 0, 10, 10)));
  store.install(make_public(2, Rect(5, 0, 15, 10)));
  const Rect window(0, 0, 20, 20);
  EXPECT_EQ(store.relevant_in_window(window, 1).size(), 2u);  // own + public
  store.mark_spent(2, 1);
  EXPECT_EQ(store.relevant_in_window(window, 1).size(), 1u);
  EXPECT_EQ(store.relevant_in_window(window, 2).size(), 2u);  // unaffected
}

TEST(AlarmStoreTest, NearestRelevantDistance) {
  AlarmStore store;
  store.install(make_private(0, 1, Rect(10, 0, 12, 2)));
  store.install(make_public(1, Rect(100, 0, 102, 2)));
  // Subscriber 1 sees its private alarm at distance 5.
  EXPECT_DOUBLE_EQ(store.nearest_relevant_distance({5, 1}, 1), 5.0);
  // Subscriber 2 only sees the public alarm.
  EXPECT_DOUBLE_EQ(store.nearest_relevant_distance({5, 1}, 2), 95.0);
  // Spend the public alarm for 2: nothing left.
  store.mark_spent(1, 2);
  EXPECT_TRUE(std::isinf(store.nearest_relevant_distance({5, 1}, 2)));
}

TEST(AlarmStoreTest, IndexAccessCounterMoves) {
  AlarmStore store;
  Rng rng(3);
  for (AlarmId i = 0; i < 200; ++i) {
    const Point c{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    store.install(make_public(i, Rect::centered_square(c, 20)));
  }
  store.reset_index_node_accesses();
  (void)store.process_position(1, {500, 500}, 0, nullptr);
  EXPECT_GT(store.index_node_accesses(), 0u);
}

// ---------------------------------------------------------------------------
// Erase / re-insert property sweep
// ---------------------------------------------------------------------------

class StoreChurnPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

// Random installs, uninstalls and re-installs over a sparse id space,
// cross-checked against a plain map model — exactly the stress the dynamics
// tier (src/dynamics) puts on the store's swap-and-pop slot bookkeeping.
TEST_P(StoreChurnPropertyTest, EraseReinsertMatchesReferenceModel) {
  constexpr std::size_t kIdSpace = 1000;  // sparse: far more ids than alarms
  constexpr int kOps = 600;
  const Rect universe(0, 0, 5000, 5000);

  Rng rng(GetParam());
  AlarmStore store;
  std::map<AlarmId, Rect> model;

  const auto random_region = [&] {
    const Point c{rng.uniform(100, 4900), rng.uniform(100, 4900)};
    return Rect::centered_square(c, rng.uniform(10, 150));
  };

  for (int op = 0; op < kOps; ++op) {
    const double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.55 || model.empty()) {
      // Install under a random sparse id (ids are reused after erase).
      const auto id = static_cast<AlarmId>(rng.index(kIdSpace));
      if (model.count(id) != 0) {
        EXPECT_THROW(store.install(make_public(id, random_region())),
                     salarm::PreconditionError);
      } else {
        const Rect region = random_region();
        store.install(make_public(id, region));
        model.emplace(id, region);
      }
    } else if (dice < 0.95) {
      // Uninstall an existing alarm (or a vacant id: must return false).
      const auto id = static_cast<AlarmId>(rng.index(kIdSpace));
      EXPECT_EQ(store.uninstall(id), model.erase(id) != 0);
    } else {
      // Rewind: clear + bulk re-install of the surviving set.
      std::vector<SpatialAlarm> survivors;
      for (const auto& [id, region] : model) {
        survivors.push_back(make_public(id, region));
      }
      store.clear();
      store.install_bulk(std::move(survivors));
    }

    // Invariants after every op.
    ASSERT_EQ(store.size(), model.size());
    std::set<AlarmId> store_ids;
    for (const auto& a : store.all()) {
      store_ids.insert(a.id);
      const auto it = model.find(a.id);
      ASSERT_TRUE(it != model.end());
      EXPECT_EQ(a.region, it->second);
      EXPECT_TRUE(store.installed(a.id));
      EXPECT_EQ(store.alarm(a.id).id, a.id);
    }
    ASSERT_EQ(store_ids.size(), store.size());  // no duplicate slots
  }

  // Spatial queries over the final state agree with a brute-force scan.
  for (int q = 0; q < 25; ++q) {
    const Point c{rng.uniform(0, 5000), rng.uniform(0, 5000)};
    const Rect window = Rect::centered_square(c, 800)
                            .intersection(universe)
                            .value_or(Rect(0, 0, 1, 1));
    std::set<AlarmId> got;
    for (const auto* a : store.relevant_in_window(window, 0)) {
      got.insert(a->id);
    }
    std::set<AlarmId> expected;
    for (const auto& [id, region] : model) {
      if (region.intersects(window)) expected.insert(id);
    }
    EXPECT_EQ(got, expected);
  }

  // A vacated id past the end of the slot table stays uninstallable-clean.
  EXPECT_FALSE(store.installed(kIdSpace + 7));
  EXPECT_FALSE(store.uninstall(kIdSpace + 7));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreChurnPropertyTest,
                         ::testing::Values(11u, 12u, 13u));

// ---------------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------------

TEST(AlarmWorkloadTest, RejectsBadConfig) {
  Rng rng(1);
  const Rect universe(0, 0, 1000, 1000);
  AlarmWorkloadConfig cfg;
  cfg.alarm_count = 0;
  EXPECT_THROW(generate_alarm_workload(cfg, universe, rng),
               salarm::PreconditionError);
  cfg = {};
  cfg.public_fraction = 1.5;
  EXPECT_THROW(generate_alarm_workload(cfg, universe, rng),
               salarm::PreconditionError);
  cfg = {};
  cfg.region_side_lo = -1;
  EXPECT_THROW(generate_alarm_workload(cfg, universe, rng),
               salarm::PreconditionError);
}

class WorkloadSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadSeedTest, GeneratesPaperShapedWorkload) {
  Rng rng(GetParam());
  const Rect universe(0, 0, 10000, 10000);
  AlarmWorkloadConfig cfg;
  cfg.alarm_count = 3000;
  cfg.subscriber_count = 500;
  cfg.public_fraction = 0.10;
  const auto alarms = generate_alarm_workload(cfg, universe, rng);
  ASSERT_EQ(alarms.size(), cfg.alarm_count);

  std::size_t n_public = 0;
  std::size_t n_private = 0;
  std::size_t n_shared = 0;
  for (std::size_t i = 0; i < alarms.size(); ++i) {
    const SpatialAlarm& a = alarms[i];
    EXPECT_EQ(a.id, i);  // dense ids
    EXPECT_TRUE(universe.contains(a.region));
    EXPECT_GT(a.region.area(), 0.0);
    EXPECT_LE(a.region.width(), cfg.region_side_hi + 1e-9);
    switch (a.scope) {
      case AlarmScope::kPublic:
        ++n_public;
        EXPECT_TRUE(a.subscribers.empty());
        break;
      case AlarmScope::kPrivate:
        ++n_private;
        ASSERT_EQ(a.subscribers.size(), 1u);
        EXPECT_EQ(a.subscribers[0], a.owner);
        break;
      case AlarmScope::kShared:
        ++n_shared;
        EXPECT_GE(a.subscribers.size(), 1u);
        EXPECT_LE(a.subscribers.size(), kSharedSubscribersHi);
        EXPECT_TRUE(std::find(a.subscribers.begin(), a.subscribers.end(),
                              a.owner) != a.subscribers.end());
        break;
    }
    EXPECT_LT(a.owner, cfg.subscriber_count);
  }
  // Mix close to 10% public and private:shared close to 2:1.
  EXPECT_NEAR(static_cast<double>(n_public) / cfg.alarm_count, 0.10, 0.03);
  EXPECT_NEAR(static_cast<double>(n_private) /
                  static_cast<double>(n_private + n_shared),
              2.0 / 3.0, 0.05);
}

TEST_P(WorkloadSeedTest, InstallsCleanlyIntoStore) {
  Rng rng(GetParam() + 50);
  const Rect universe(0, 0, 10000, 10000);
  AlarmWorkloadConfig cfg;
  cfg.alarm_count = 1000;
  cfg.subscriber_count = 100;
  auto alarms = generate_alarm_workload(cfg, universe, rng);
  AlarmStore store;
  store.install_bulk(std::move(alarms));
  EXPECT_EQ(store.size(), cfg.alarm_count);

  // relevant_in_window agrees with a brute-force scan.
  Rng qrng(GetParam() + 99);
  for (int q = 0; q < 20; ++q) {
    const Point c{qrng.uniform(0, 10000), qrng.uniform(0, 10000)};
    const Rect window = Rect::centered_square(c, 1500).intersection(universe)
                            .value_or(Rect(0, 0, 1, 1));
    const auto s = static_cast<SubscriberId>(qrng.index(100));
    const auto got = store.relevant_in_window(window, s);
    std::set<AlarmId> got_ids;
    for (const auto* a : got) got_ids.insert(a->id);
    std::set<AlarmId> expected;
    for (AlarmId i = 0; i < store.size(); ++i) {
      const SpatialAlarm& a = store.alarm(i);
      if (a.region.intersects(window) && store.relevant(a, s)) {
        expected.insert(i);
      }
    }
    EXPECT_EQ(got_ids, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSeedTest,
                         ::testing::Values(100u, 200u, 300u));

}  // namespace
}  // namespace salarm::alarms
