// Allocation guard for the hot alarm-probe paths.
//
// The steady state of a run must not touch the heap per position update:
// the R*-tree point probe, a window visit, and a process_position that
// fires nothing all run allocation-free. This executable replaces the
// global operator new/delete with counting versions, which is why it is
// built apart from salarm_tests. Each test builds its fixture first and
// counts only across the measured calls.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "common/rng.h"
#include "geometry/rect.h"
#include "index/rstar_tree.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace salarm {
namespace {

using geo::Point;
using geo::Rect;

constexpr std::size_t kProbes = 2000;
const Rect kUniverse(0.0, 0.0, 20000.0, 20000.0);

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::vector<Point> random_points(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    points.push_back({rng.uniform(0.0, kUniverse.width()),
                      rng.uniform(0.0, kUniverse.height())});
  }
  return points;
}

std::vector<alarms::SpatialAlarm> alarm_workload() {
  alarms::AlarmWorkloadConfig cfg;
  cfg.alarm_count = 5000;
  cfg.subscriber_count = 50;
  cfg.public_fraction = 0.5;
  Rng rng(11);
  return alarms::generate_alarm_workload(cfg, kUniverse, rng);
}

index::RStarTree alarm_tree() {
  std::vector<index::Entry> entries;
  for (const alarms::SpatialAlarm& a : alarm_workload()) {
    entries.push_back({a.region, a.id});
  }
  return index::RStarTree::bulk_load(std::move(entries));
}

TEST(AllocationTest, PointProbeAllocatesNothing) {
  const index::RStarTree tree = alarm_tree();
  const std::vector<Point> points = random_points(1);
  std::uint64_t hits = 0;
  std::uint64_t accesses = 0;
  double checksum = 0.0;
  const std::size_t before = allocations();
  for (const Point p : points) {
    // A capture list wider than std::function's inline buffer.
    accesses += tree.probe(p, [&hits, &checksum, p](const index::Entry& e) {
      ++hits;
      checksum += e.rect.distance(p);
      return true;
    });
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(accesses, kProbes);
  EXPECT_EQ(checksum, 0.0);  // every hit contains its probe point
}

TEST(AllocationTest, VisitAllocatesNothing) {
  const index::RStarTree tree = alarm_tree();
  const std::vector<Point> points = random_points(2);
  std::uint64_t hits = 0;
  std::uint64_t intersecting = 0;
  const std::size_t before = allocations();
  for (const Point p : points) {
    const Rect window = Rect::centered_square(p, 400.0);
    tree.visit(window, [&hits, &intersecting, &window](const index::Entry& e) {
      ++hits;
      if (e.rect.intersects(window)) ++intersecting;
      return true;
    });
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(intersecting, hits);
}

TEST(AllocationTest, NonFiringProcessPositionAllocatesNothing) {
  alarms::AlarmStore store;
  store.install_bulk(alarm_workload());
  const std::vector<Point> points = random_points(3);
  // First pass fires (and spends) every pair the points reach; the
  // measured second pass walks the same index paths but fires nothing.
  std::size_t fired = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto s = static_cast<alarms::SubscriberId>(i % 50);
    fired += store.process_position(s, points[i], 0, nullptr).size();
  }
  ASSERT_GT(fired, 0u);

  store.reset_index_node_accesses();
  std::size_t refired = 0;
  const std::size_t before = allocations();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto s = static_cast<alarms::SubscriberId>(i % 50);
    refired += store.process_position(s, points[i], 1, nullptr).size();
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(refired, 0u);
  EXPECT_GT(store.index_node_accesses(), kProbes);
}

}  // namespace
}  // namespace salarm
