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
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "common/rng.h"
#include "geometry/rect.h"
#include "grid/grid_overlay.h"
#include "saferegion/pyramid.h"
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

class PyramidGrantMemoTest : public ::testing::Test {
 protected:
  PyramidGrantMemoTest() {
    alarms::AlarmWorkloadConfig cfg;
    cfg.alarm_count = 900;
    cfg.subscriber_count = kSubscribers;
    cfg.public_fraction = 0.3;
    Rng rng(5);
    store.install_bulk(alarms::generate_alarm_workload(cfg, kUniverse, rng));
  }

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
      const Point corner = kCells[rng.index(std::size(kCells))];
      const Point p{corner.x + rng.uniform(1.0, 999.0),
                    corner.y + rng.uniform(1.0, 999.0)};
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

  // A crash, then the restores: the store is rebuilt alarm by alarm, so
  // its visit order may differ from the bulk-loaded one.
  const std::vector<alarms::SpatialAlarm> saved = store.all();
  const auto spent_pairs = store.spent_pairs();
  warm.crash();
  for (const alarms::SpatialAlarm& a : saved) warm.restore_install(a, 0);
  for (const auto& [id, s] : spent_pairs) warm.restore_spent(id, s);
  random_contacts(rng, 300);
}

}  // namespace
}  // namespace salarm
