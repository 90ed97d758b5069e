// Allocation guard for the hot alarm-probe and contact paths.
//
// The steady state of a run must not touch the heap per position update:
// the R*-tree point probe, a window visit, and a process_position that
// fires nothing all run allocation-free. Neither may the grant index's
// updates once the tree's node arena is warm. Neither may a contact, once its
// thread and server are warm: the safe-period nearest-neighbour search
// allocates nothing, an MWPSR contact allocates nothing, and a pyramid
// build or a PBSR contact allocates only the returned bitmap's node array,
// whether the server's build memo hits or overwrites a way; a contact
// served from the public-bitmap cache allocates a pinned count. A
// malformed pyramid stream is rejected without any large request.
// Nor may the ground-truth oracle's ticks: once its table and
// buffers are built, a tick that fires nothing allocates nothing, so a run
// of 10N ticks allocates exactly what a run of N does. The same holds for
// the trace generator's replays, trips started inside the window included:
// each vehicle reuses its route buffer and each chunk its router. This
// executable
// replaces the global operator new/delete
// with counting versions, which is why it is built apart from
// salarm_tests. Each test builds its fixture first, warms the thread's
// scratch with one unmeasured pass where the path has any, and counts only
// across the measured calls.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "alarms/alarm_store.h"
#include "common/bitio.h"
#include "common/error.h"
#include "common/rng.h"
#include "dynamics/session_index.h"
#include "geometry/rect.h"
#include "grid/grid_overlay.h"
#include "index/rstar_tree.h"
#include "mobility/position_source.h"
#include "mobility/trace_generator.h"
#include "roadnet/network_builder.h"
#include "saferegion/motion_model.h"
#include "saferegion/mwpsr.h"
#include "saferegion/pyramid.h"
#include "sim/metrics.h"
#include "sim/oracle.h"
#include "sim/server.h"

namespace {

std::atomic<std::size_t> g_allocations{0};
/// The largest single request since the last reset.
std::atomic<std::size_t> g_largest_request{0};

// Out of line, so that the operators below stay small enough to inline:
// GCC then sees their malloc/free pairs match (-Wmismatched-new-delete).
[[gnu::noinline]] void count_request(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_request.load(std::memory_order_relaxed);
  while (n > largest && !g_largest_request.compare_exchange_weak(
                            largest, n, std::memory_order_relaxed)) {
  }
}

}  // namespace

void* operator new(std::size_t n) {
  count_request(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them), so
// every plain new is counted and freed by the matching delete below —
// AddressSanitizer rejects a free() of its own operator new's memory.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_request(n);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
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

TEST(AllocationTest, WarmSessionIndexUpdatesAllocateNothing) {
  // The grant index's write path: every grant replaces its subscriber's
  // last one, so the R*-tree erases the old box and inserts the new one,
  // with forced reinserts, splits and condensing along the way. At a
  // steady size, once the node arena and the mutation scratch have grown
  // to fit, that allocates nothing. (A clear() followed by a record() of
  // the same subscriber also allocates the side map's node.)
  constexpr std::size_t kSubscribers = 400;
  dynamics::SessionIndex index;
  Rng rng(12);
  const auto regrant = [&](alarms::SubscriberId s) {
    const Point c{rng.uniform(0.0, kUniverse.width()),
                  rng.uniform(0.0, kUniverse.height())};
    index.record(s, dynamics::GrantKind::kRect,
                 Rect::centered_square(c, rng.uniform(500.0, 3000.0)));
  };
  for (std::size_t s = 0; s < kSubscribers; ++s) {
    regrant(static_cast<alarms::SubscriberId>(s));
  }
  const auto cycles = [&] {
    for (std::size_t i = 0; i < 20 * kSubscribers; ++i) {
      regrant(static_cast<alarms::SubscriberId>(rng.index(kSubscribers)));
    }
  };
  cycles();
  const std::uint64_t warm_accesses = index.node_accesses();
  const std::size_t before = allocations();
  cycles();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(index.size(), kSubscribers);
  EXPECT_GT(index.node_accesses(), warm_accesses);
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

TEST(AllocationTest, WarmPyramidBuildAllocatesOnlyItsNodes) {
  alarms::AlarmStore store;
  store.install_bulk(alarm_workload());
  const grid::GridOverlay grid =
      grid::GridOverlay::with_cell_area(kUniverse, 1.0e6);
  const std::vector<Point> points = random_points(4);
  std::vector<Rect> cells;
  std::vector<std::vector<Rect>> regions(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    cells.push_back(grid.cell_rect(grid.cell_of(points[i])));
    store.relevant_regions_in_window(
        cells[i], static_cast<alarms::SubscriberId>(i % 50),
        alarms::AlarmStore::Scopes::kAll, regions[i]);
  }
  const saferegion::PyramidConfig config;
  const auto build_all = [&] {
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      (void)saferegion::PyramidBitmap::build(cells[i], regions[i], config,
                                             &ops);
    }
    return ops;
  };
  const std::uint64_t warm_ops = build_all();
  const std::size_t before = allocations();
  const std::uint64_t ops = build_all();
  EXPECT_EQ(allocations() - before, points.size());
  EXPECT_EQ(ops, warm_ops);
  EXPECT_GT(ops, kProbes);
}

TEST(AllocationTest, WarmNearestRelevantDistanceAllocatesNothing) {
  alarms::AlarmStore store;
  store.install_bulk(alarm_workload());
  const std::vector<Point> points = random_points(5);
  const auto sweep = [&] {
    double sum = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      sum += store.nearest_relevant_distance(
          points[i], static_cast<alarms::SubscriberId>(i % 50));
    }
    return sum;
  };
  const double warm = sweep();
  const std::size_t before = allocations();
  const double sum = sweep();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(sum, warm);
}

/// A one-shard server over the alarm workload, on 1 km² cells.
struct ServerFixture {
  alarms::AlarmStore store;
  grid::GridOverlay grid = grid::GridOverlay::with_cell_area(kUniverse, 1.0e6);
  sim::Metrics metrics;
  sim::Server server{store, grid, metrics};

  ServerFixture() { store.install_bulk(alarm_workload()); }
};

TEST(AllocationTest, WarmSafePeriodContactAllocatesNothing) {
  ServerFixture f;
  const std::vector<Point> points = random_points(6);
  const auto contacts = [&] {
    for (std::size_t i = 0; i < points.size(); ++i) {
      (void)f.server.compute_safe_period(
          static_cast<alarms::SubscriberId>(i % 50), points[i], 30.0, 1.0);
    }
  };
  contacts();
  const std::uint64_t warm_ops = f.metrics.server_region_ops;
  const std::size_t before = allocations();
  contacts();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(f.metrics.server_region_ops, 2 * warm_ops);
}

TEST(AllocationTest, WarmMwpsrContactAllocatesNothing) {
  ServerFixture f;
  const std::vector<Point> points = random_points(9);
  const saferegion::MotionModel model(1.0, 32);
  const auto contacts = [&] {
    double area = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      area += f.server
                  .compute_rect_region(
                      static_cast<alarms::SubscriberId>(i % 50), points[i],
                      0.001 * static_cast<double>(i), model, {})
                  .rect.area();
    }
    return area;
  };
  const double warm_area = contacts();
  const std::uint64_t warm_ops = f.metrics.server_region_ops;
  const std::size_t before = allocations();
  const double area = contacts();
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(area, warm_area);
  EXPECT_EQ(f.metrics.server_region_ops, 2 * warm_ops);
  EXPECT_GT(warm_ops, kProbes);
}

TEST(AllocationTest, WarmPyramidContactAllocatesOnlyTheBitmap) {
  ServerFixture f;
  const std::vector<Point> points = random_points(7);
  const saferegion::PyramidConfig config;
  const auto contacts = [&] {
    std::size_t bits = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      bits += f.server
                  .compute_pyramid_region(
                      static_cast<alarms::SubscriberId>(i % 50), points[i],
                      config)
                  .bit_size();
    }
    return bits;
  };
  const std::size_t warm_bits = contacts();
  const std::size_t before = allocations();
  const std::size_t bits = contacts();
  EXPECT_EQ(allocations() - before, points.size());
  EXPECT_EQ(bits, warm_bits);
}

TEST(AllocationTest, WarmCachedPyramidContactAllocatesAsPinned) {
  // Public-cache grants (paper §4.2) once every cell's public bitmap is
  // built: a contact without private regions copies the cached bitmap; one
  // with them builds the private bitmap and intersects it with the cached
  // one, which grows its work queue and node array as it goes. So the
  // count depends on each bitmap's shape and is pinned, not derived.
  ServerFixture f;
  const std::vector<Point> points = random_points(8);
  const saferegion::PyramidConfig config;
  const auto contacts = [&] {
    std::size_t bits = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      bits += f.server
                  .compute_pyramid_region(
                      static_cast<alarms::SubscriberId>(i % 50), points[i],
                      config, /*public_cache=*/true)
                  .bit_size();
    }
    return bits;
  };
  const std::size_t warm_bits = contacts();
  const std::size_t before = allocations();
  const std::size_t bits = contacts();
  EXPECT_EQ(allocations() - before, 15438u);
  EXPECT_EQ(bits, warm_bits);
}

TEST(AllocationTest, WarmPyramidContactsThatEvictAWayAllocateOnlyTheBitmap) {
  ServerFixture f;
  const saferegion::PyramidConfig config;
  // Cells in which five subscribers have pairwise different relevant
  // regions. Cycling the five through a cell's four memo ways makes every
  // contact a miss that overwrites the least recent way.
  constexpr std::size_t kKeys = 5;
  struct Cycle {
    Point position;
    std::vector<alarms::SubscriberId> subscribers;
  };
  std::vector<Cycle> cycles;
  std::vector<std::size_t> cells;
  for (const Point p : random_points(10)) {
    const grid::CellId cell = f.grid.cell_of(p);
    if (std::ranges::find(cells, f.grid.flat_index(cell)) != cells.end()) {
      continue;
    }
    Cycle cycle{p, {}};
    std::vector<std::vector<Rect>> keys;
    for (alarms::SubscriberId s = 0; s < 50 && keys.size() < kKeys; ++s) {
      std::vector<Rect> regions;
      f.store.relevant_regions_in_window(f.grid.cell_rect(cell), s,
                                         alarms::AlarmStore::Scopes::kAll,
                                         regions);
      if (std::ranges::find(keys, regions) != keys.end()) continue;
      keys.push_back(std::move(regions));
      cycle.subscribers.push_back(s);
    }
    if (keys.size() < kKeys) continue;
    cells.push_back(f.grid.flat_index(cell));
    cycles.push_back(std::move(cycle));
  }
  ASSERT_GE(cycles.size(), 100u);
  const auto rounds = [&] {
    std::size_t bits = 0;
    for (int round = 0; round < 2; ++round) {
      for (const Cycle& cycle : cycles) {
        for (const alarms::SubscriberId s : cycle.subscribers) {
          bits += f.server.compute_pyramid_region(s, cycle.position, config)
                      .bit_size();
        }
      }
    }
    return bits;
  };
  const std::size_t warm_bits = rounds();
  const std::uint64_t warm_ops = f.metrics.server_region_ops;
  const std::size_t before = allocations();
  const std::size_t bits = rounds();
  EXPECT_EQ(allocations() - before, 2 * kKeys * cycles.size());
  EXPECT_EQ(bits, warm_bits);
  EXPECT_EQ(f.metrics.server_region_ops, 2 * warm_ops);
}

TEST(AllocationTest, MalformedPyramidStreamMakesNoLargeRequest) {
  // 259 bytes claiming a 255 x 255 fan-out: a subdivided root, then 1,033
  // subdivided level-1 nodes before the bits run out. Allocating each
  // subdivided node's children before reading them would request
  // gigabytes; the decoder must reject the stream within its bit count.
  saferegion::PyramidConfig config;
  config.fanout_u = 255;
  config.fanout_v = 255;
  config.height = 2;
  BitWriter writer;
  for (int node = 0; node < 1034; ++node) {
    writer.push(false);
    writer.push(true);
  }
  ASSERT_EQ(writer.bytes().size(), 259u);
  g_largest_request.store(0, std::memory_order_relaxed);
  EXPECT_THROW((void)saferegion::PyramidBitmap::deserialize(
                   Rect(0.0, 0.0, 900.0, 900.0), config, writer.bytes(),
                   writer.bit_count()),
               PreconditionError);
  EXPECT_LE(g_largest_request.load(std::memory_order_relaxed),
            std::size_t{1} << 20);
}

/// Vehicles that drift by a fixed step, wrapping inside the universe, with
/// no allocation per step.
class DriftSource final : public mobility::PositionSource {
 public:
  explicit DriftSource(std::size_t vehicles) : start_(vehicles) {
    Rng rng(8);
    for (mobility::VehicleSample& s : start_) {
      s.pos = {rng.uniform(0.0, kUniverse.width()),
               rng.uniform(0.0, kUniverse.height())};
    }
    reset();
  }

  void reset() override { samples_ = start_; }
  void step() override {
    for (mobility::VehicleSample& s : samples_) {
      s.pos = {std::fmod(s.pos.x + 37.0, kUniverse.width()),
               std::fmod(s.pos.y + 23.0, kUniverse.height())};
    }
  }
  const std::vector<mobility::VehicleSample>& samples() const override {
    return samples_;
  }
  std::size_t vehicle_count() const override { return samples_.size(); }
  double tick_seconds() const override { return 1.0; }
  geo::Rect extent() const override { return kUniverse; }

 private:
  std::vector<mobility::VehicleSample> start_;
  std::vector<mobility::VehicleSample> samples_;
};

TEST(AllocationTest, WarmOracleTicksAllocateNothing) {
  // Private and shared alarms whose subscribers are none of the vehicles:
  // every tick looks up each vehicle's cell and tests its alarms, and
  // nothing fires.
  constexpr std::size_t kVehicles = 1300;  // three chunks, one partial
  std::vector<alarms::SpatialAlarm> workload = alarm_workload();
  for (alarms::SpatialAlarm& a : workload) {
    a.scope = alarms::AlarmScope::kShared;
    a.subscribers = {static_cast<alarms::SubscriberId>(kVehicles + a.id)};
  }
  alarms::AlarmStore store;
  store.install_bulk(std::move(workload));
  DriftSource source(kVehicles);
  const auto oracle_allocations = [&](std::size_t ticks) {
    const std::size_t before = allocations();
    const std::vector<alarms::TriggerEvent> events =
        sim::ground_truth_triggers(source, store, ticks);
    EXPECT_TRUE(events.empty());
    return allocations() - before;
  };
  constexpr std::size_t kTicks = 20;
  const std::size_t short_run = oracle_allocations(kTicks);
  EXPECT_GT(short_run, 0u);  // the table and buffers
  EXPECT_EQ(oracle_allocations(10 * kTicks), short_run);
}

TEST(AllocationTest, WarmTraceStepsAllocateNothing) {
  // A small map and short dwells, so vehicles finish trips and start new
  // ones, each routed by A*, inside the measured window.
  roadnet::NetworkConfig map;
  map.width_m = 8000;
  map.height_m = 8000;
  Rng rng(2);
  const roadnet::RoadNetwork network =
      roadnet::build_synthetic_network(map, rng);
  mobility::TraceConfig config;
  config.vehicle_count = 300;  // three chunks, one partial
  config.max_dwell_seconds = 5.0;
  mobility::TraceGenerator generator(network, config);
  std::vector<double> speed(config.vehicle_count);
  struct Replay {
    std::size_t allocations;
    std::size_t restarts;  ///< parked vehicles that drove off again
  };
  const auto replay = [&](std::size_t ticks) {
    const std::size_t before = allocations();
    generator.reset();
    std::size_t restarts = 0;
    for (std::size_t t = 1; t <= ticks; ++t) {
      generator.step();
      for (std::size_t v = 0; v < speed.size(); ++v) {
        const double now = generator.samples()[v].speed_mps;
        if (t > 1 && speed[v] == 0.0 && now > 0.0) ++restarts;
        speed[v] = now;
      }
    }
    return Replay{allocations() - before, restarts};
  };
  constexpr std::size_t kTicks = 20;
  // One unmeasured replay sizes every route buffer and router scratch.
  replay(10 * kTicks);
  const Replay short_run = replay(kTicks);
  const Replay long_run = replay(10 * kTicks);
  EXPECT_GT(long_run.restarts, short_run.restarts);
  EXPECT_EQ(long_run.allocations, short_run.allocations);
}

}  // namespace
}  // namespace salarm
