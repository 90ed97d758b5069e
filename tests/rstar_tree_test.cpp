#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_executor.h"
#include "common/rng.h"
#include "geometry/rect.h"
#include "index/rstar_tree.h"

namespace salarm::index {
namespace {

using geo::Point;
using geo::Rect;

Rect random_rect(Rng& rng, double extent, double max_side) {
  const Point lo{rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
  return Rect(lo, {lo.x + rng.uniform(0.0, max_side),
                   lo.y + rng.uniform(0.0, max_side)});
}

std::multiset<std::uint64_t> ids_of(const std::vector<Entry>& entries) {
  std::multiset<std::uint64_t> out;
  for (const Entry& e : entries) out.insert(e.id);
  return out;
}

/// All entries whose rect (closed) intersects the window, via visit.
std::vector<Entry> search(const RStarTree& tree, const Rect& window) {
  std::vector<Entry> out;
  tree.visit(window, [&](const Entry& e) {
    out.push_back(e);
    return true;
  });
  return out;
}

/// All entries whose rect (closed) contains the point.
std::vector<Entry> search(const RStarTree& tree, Point p) {
  return search(tree, Rect(p, p));
}

/// Brute-force k-NN reference: the entries sorted by rectangle distance.
std::vector<Entry> by_distance(std::vector<Entry> entries, Point p) {
  std::stable_sort(entries.begin(), entries.end(),
                   [p](const Entry& a, const Entry& b) {
                     return a.rect.distance(p) < b.rect.distance(p);
                   });
  return entries;
}

TEST(RStarTreeTest, EmptyTree) {
  RStarTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_TRUE(search(tree, Rect(0, 0, 100, 100)).empty());
  EXPECT_TRUE(std::isinf(tree.nearest_distance({0, 0})));
  EXPECT_EQ(tree.node_accesses(), 0u);
  EXPECT_FALSE(tree.erase({Rect(0, 0, 1, 1), 7}));
  tree.check_invariants();
}

TEST(RStarTreeTest, RejectsTinyCapacity) {
  EXPECT_THROW(RStarTree(3), salarm::PreconditionError);
  EXPECT_NO_THROW(RStarTree(4));
}

TEST(RStarTreeTest, RejectsCapacityBeyondTheHitMask) {
  // A node's capacity + 1 slots must fit one 64-bit hit mask.
  EXPECT_THROW(RStarTree(RStarTree::kMaxCapacity + 1),
               salarm::PreconditionError);
  EXPECT_NO_THROW(RStarTree(RStarTree::kMaxCapacity));
}

TEST(RStarTreeTest, LargestCapacityUsesEveryMaskBit) {
  // Full nodes of the largest capacity use mask bits up to 62 at rest and
  // slot 63 while they overflow.
  RStarTree tree(RStarTree::kMaxCapacity);
  Rng rng(17);
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < 1500; ++i) {
    entries.push_back({random_rect(rng, 300.0, 40.0), i});
    tree.insert(entries.back());
  }
  EXPECT_GT(tree.height(), 1u);
  tree.check_invariants();
  for (int q = 0; q < 100; ++q) {
    const Point p{rng.uniform(0.0, 340.0), rng.uniform(0.0, 340.0)};
    std::multiset<std::uint64_t> expected;
    for (const Entry& e : entries) {
      if (e.rect.contains(p)) expected.insert(e.id);
    }
    std::multiset<std::uint64_t> probed;
    (void)tree.probe(p, [&](const Entry& e) {
      probed.insert(e.id);
      return true;
    });
    EXPECT_EQ(probed, expected);
    EXPECT_EQ(ids_of(search(tree, p)), expected);
  }
}

TEST(RStarTreeTest, SingleEntry) {
  RStarTree tree;
  tree.insert({Rect(10, 10, 20, 20), 42});
  EXPECT_EQ(tree.size(), 1u);
  const auto hits = search(tree, Rect(0, 0, 15, 15));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].id, 42u);
  EXPECT_TRUE(search(tree, Rect(21, 21, 30, 30)).empty());
  // Touching windows hit (closed semantics).
  EXPECT_EQ(search(tree, Rect(20, 20, 30, 30)).size(), 1u);
  tree.check_invariants();
}

TEST(RStarTreeTest, PointSearchFindsContainingRects) {
  RStarTree tree;
  tree.insert({Rect(0, 0, 10, 10), 1});
  tree.insert({Rect(5, 5, 15, 15), 2});
  tree.insert({Rect(20, 20, 30, 30), 3});
  const auto hits = ids_of(search(tree, Point{7, 7}));
  EXPECT_EQ(hits, (std::multiset<std::uint64_t>{1, 2}));
  // Boundary point hits (closed containment).
  EXPECT_EQ(search(tree, Point{10, 10}).size(), 2u);
}

TEST(RStarTreeTest, DuplicateIdsAreAMultiset) {
  RStarTree tree;
  tree.insert({Rect(0, 0, 1, 1), 5});
  tree.insert({Rect(0, 0, 1, 1), 5});
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.erase({Rect(0, 0, 1, 1), 5}));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.erase({Rect(0, 0, 1, 1), 5}));
  EXPECT_TRUE(tree.empty());
}

TEST(RStarTreeTest, EraseRequiresExactMatch) {
  RStarTree tree;
  tree.insert({Rect(0, 0, 1, 1), 5});
  EXPECT_FALSE(tree.erase({Rect(0, 0, 1, 2), 5}));  // wrong rect
  EXPECT_FALSE(tree.erase({Rect(0, 0, 1, 1), 6}));  // wrong id
  EXPECT_EQ(tree.size(), 1u);
}

TEST(RStarTreeTest, GrowsAndKeepsInvariants) {
  RStarTree tree(8);
  Rng rng(3);
  for (std::uint64_t i = 0; i < 500; ++i) {
    tree.insert({random_rect(rng, 1000.0, 20.0), i});
  }
  EXPECT_EQ(tree.size(), 500u);
  EXPECT_GT(tree.height(), 1u);
  tree.check_invariants();
}

TEST(RStarTreeTest, VisitEarlyStop) {
  RStarTree tree;
  for (std::uint64_t i = 0; i < 100; ++i) {
    tree.insert({Rect(0, 0, 1, 1), i});
  }
  int visited = 0;
  tree.visit(Rect(0, 0, 1, 1), [&](const Entry&) {
    ++visited;
    return visited < 10;
  });
  EXPECT_EQ(visited, 10);
}

TEST(RStarTreeTest, NodeAccessCounterAdvances) {
  RStarTree tree;
  Rng rng(4);
  for (std::uint64_t i = 0; i < 200; ++i) {
    tree.insert({random_rect(rng, 100.0, 5.0), i});
  }
  tree.reset_node_accesses();
  EXPECT_EQ(tree.node_accesses(), 0u);
  (void)search(tree, Rect(0, 0, 100, 100));
  const auto after_big = tree.node_accesses();
  EXPECT_GT(after_big, 0u);
  (void)search(tree, Rect(0, 0, 1, 1));
  const auto after_small = tree.node_accesses();
  EXPECT_GT(after_small, after_big);
  (void)tree.nearest_distance({50, 50});
  EXPECT_GT(tree.node_accesses(), after_small);
}

TEST(RStarTreeTest, NearestBasics) {
  RStarTree tree;
  tree.insert({Rect(10, 0, 12, 2), 1});
  tree.insert({Rect(20, 0, 22, 2), 2});
  tree.insert({Rect(-5, 0, -3, 2), 3});
  EXPECT_DOUBLE_EQ(tree.nearest_distance({0, 1}), 3.0);
  // Filtering out the nearest yields the second nearest, and so on.
  EXPECT_DOUBLE_EQ(
      tree.nearest_distance({0, 1}, [](std::uint64_t id) { return id != 3; }),
      10.0);
  EXPECT_DOUBLE_EQ(
      tree.nearest_distance({0, 1}, [](std::uint64_t id) { return id == 2; }),
      20.0);
  // Inside a rect → distance 0.
  EXPECT_DOUBLE_EQ(tree.nearest_distance({11, 1}), 0.0);
}

TEST(RStarTreeTest, NearestWithFilter) {
  RStarTree tree;
  tree.insert({Rect(1, 0, 2, 1), 1});
  tree.insert({Rect(5, 0, 6, 1), 2});
  EXPECT_DOUBLE_EQ(tree.nearest_distance({0, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(
      tree.nearest_distance({0, 0.5},
                            [](std::uint64_t id) { return id != 1; }),
      5.0);
  // Filter rejecting everything → infinity.
  EXPECT_TRUE(std::isinf(
      tree.nearest_distance({0, 0}, [](std::uint64_t) { return false; })));
}

// ---------------------------------------------------------------------------
// Randomized equivalence against brute force, swept over tree capacities
// and workload sizes.
// ---------------------------------------------------------------------------

struct SweepParam {
  std::size_t capacity;
  std::size_t entries;
  std::uint64_t seed;
};

const SweepParam kSweep[] = {{4, 64, 10},
                              {8, 256, 20},
                              {16, 1024, 30},
                              {32, 400, 40},
                              {16, 2000, 50}};

class RStarSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RStarSweepTest, SearchMatchesBruteForce) {
  const auto [capacity, n, seed] = GetParam();
  Rng rng(seed);
  RStarTree tree(capacity);
  std::vector<Entry> reference;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Entry e{random_rect(rng, 500.0, 40.0), i};
    tree.insert(e);
    reference.push_back(e);
  }
  tree.check_invariants();
  for (int q = 0; q < 50; ++q) {
    const Rect window = random_rect(rng, 500.0, 120.0);
    std::multiset<std::uint64_t> expected;
    for (const Entry& e : reference) {
      if (e.rect.intersects(window)) expected.insert(e.id);
    }
    EXPECT_EQ(ids_of(search(tree, window)), expected);
  }
}

TEST_P(RStarSweepTest, KnnMatchesBruteForce) {
  const auto [capacity, n, seed] = GetParam();
  Rng rng(seed + 1000);
  RStarTree tree(capacity);
  std::vector<Entry> reference;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Entry e{random_rect(rng, 500.0, 40.0), i};
    tree.insert(e);
    reference.push_back(e);
  }
  // The i-th nearest distance is nearest_distance with the i - 1 nearest
  // entries of the brute-force reference filtered out.
  for (int q = 0; q < 20; ++q) {
    const Point p{rng.uniform(0, 500), rng.uniform(0, 500)};
    const std::size_t k = 1 + static_cast<std::size_t>(rng.index(10));
    const std::vector<Entry> expected = by_distance(reference, p);
    std::set<std::uint64_t> nearer;
    for (std::size_t i = 0; i < k; ++i) {
      const double distance = tree.nearest_distance(
          p, [&](std::uint64_t id) { return !nearer.contains(id); });
      EXPECT_EQ(distance, expected[i].rect.distance(p));
      nearer.insert(expected[i].id);
    }
  }
}

TEST_P(RStarSweepTest, EraseHalfKeepsQueriesCorrect) {
  const auto [capacity, n, seed] = GetParam();
  Rng rng(seed + 2000);
  RStarTree tree(capacity);
  std::vector<Entry> reference;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Entry e{random_rect(rng, 500.0, 40.0), i};
    tree.insert(e);
    reference.push_back(e);
  }
  // Erase every other entry.
  std::vector<Entry> kept;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(tree.erase(reference[i]));
    } else {
      kept.push_back(reference[i]);
    }
  }
  EXPECT_EQ(tree.size(), kept.size());
  tree.check_invariants();
  for (int q = 0; q < 30; ++q) {
    const Rect window = random_rect(rng, 500.0, 120.0);
    std::multiset<std::uint64_t> expected;
    for (const Entry& e : kept) {
      if (e.rect.intersects(window)) expected.insert(e.id);
    }
    EXPECT_EQ(ids_of(search(tree, window)), expected);
  }
  // Erase the rest; the tree must drain to empty cleanly.
  for (const Entry& e : kept) EXPECT_TRUE(tree.erase(e));
  EXPECT_TRUE(tree.empty());
  tree.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(CapacityAndSize, RStarSweepTest,
                         ::testing::ValuesIn(kSweep));

TEST(RStarTreeTest, NearestDistanceMatchesKnn) {
  // nearest_distance against the brute-force k = 1 reference, with and
  // without a filter (which here rejects two thirds of the entries, or
  // every one of them for some queries). The node accesses per sweep row
  // are pinned: they are what the best-first k-NN search read before it
  // was folded into nearest_distance, and the cost model charges them.
  const std::uint64_t kNodeAccesses[] = {483, 479, 684, 244, 1108};
  for (std::size_t row = 0; row < std::size(kSweep); ++row) {
    const auto [capacity, n, seed] = kSweep[row];
    Rng rng(seed + 3000);
    RStarTree tree(capacity);
    std::vector<Entry> reference;
    for (std::uint64_t i = 0; i < n; ++i) {
      reference.push_back({random_rect(rng, 500.0, 40.0), i});
      tree.insert(reference.back());
    }
    std::uint64_t accesses = 0;
    for (int q = 0; q < 40; ++q) {
      const Point p{rng.uniform(-50, 550), rng.uniform(-50, 550)};
      const std::uint64_t residue = rng.index(3);
      const bool reject_all = q % 10 == 0;
      const auto filter = [&](std::uint64_t id) {
        return !reject_all && id % 3 == residue;
      };
      for (const bool filtered : {false, true}) {
        SCOPED_TRACE(testing::Message() << "capacity=" << capacity << " n="
                                        << n << " q=" << q
                                        << " filtered=" << filtered);
        tree.reset_node_accesses();
        const double distance = filtered ? tree.nearest_distance(p, filter)
                                         : tree.nearest_distance(p);
        accesses += tree.node_accesses();
        double expected = std::numeric_limits<double>::infinity();
        for (const Entry& e : reference) {
          if (!filtered || filter(e.id)) {
            expected = std::min(expected, e.rect.distance(p));
          }
        }
        EXPECT_EQ(distance, expected);
      }
    }
    EXPECT_EQ(accesses, kNodeAccesses[row]) << "capacity=" << capacity;
  }
}

// ---------------------------------------------------------------------------
// nearest_distance against the best-first search it must charge exactly
// (forced through nearest_distance_best_first) and against brute force, on
// inputs built for ties: rects on an integer grid, duplicated entries, and
// queries on entry corners, on edges and inside entries.
// ---------------------------------------------------------------------------

struct TieHeavyTree {
  std::vector<Entry> entries;
  RStarTree tree;
};

TieHeavyTree tie_heavy_tree(std::size_t capacity, bool bulk, Rng& rng) {
  TieHeavyTree out{{}, RStarTree(capacity)};
  for (std::uint64_t i = 0; i < 400; ++i) {
    if (i > 0 && rng.chance(0.15)) {
      out.entries.push_back(out.entries[rng.index(out.entries.size())]);
      continue;
    }
    const Point lo{static_cast<double>(rng.index(40)),
                   static_cast<double>(rng.index(40))};
    out.entries.push_back({Rect(lo, {lo.x + static_cast<double>(rng.index(4)),
                                     lo.y + static_cast<double>(rng.index(4))}),
                           i});
  }
  if (bulk) {
    out.tree = RStarTree::bulk_load(out.entries, capacity);
  } else {
    for (const Entry& e : out.entries) out.tree.insert(e);
  }
  out.tree.check_invariants();
  return out;
}

/// Query points: entry corners, edge midpoints and centres, grid points and
/// half-grid points, some outside the grid.
std::vector<Point> tie_heavy_points(const std::vector<Entry>& entries,
                                    Rng& rng) {
  std::vector<Point> out;
  for (int q = 0; q < 40; ++q) {
    const Rect r = entries[rng.index(entries.size())].rect;
    const Point c = r.center();
    out.push_back(r.lo());
    out.push_back({r.hi().x, r.lo().y});
    out.push_back({c.x, r.hi().y});
    out.push_back(c);
    out.push_back({static_cast<double>(rng.index(50)) - 5.0,
                   static_cast<double>(rng.index(50)) - 5.0});
    out.push_back({static_cast<double>(rng.index(100)) / 2.0 - 5.0,
                   static_cast<double>(rng.index(100)) / 2.0 - 5.0});
  }
  return out;
}

TEST(RStarTreeNearestTest, ChargesTheBestFirstAccessesOnTieHeavyTrees) {
  std::uint64_t calls = 0;
  std::uint64_t fallbacks = 0;
  for (const std::size_t capacity : {4u, 8u, 16u}) {
    for (const bool bulk : {false, true}) {
      Rng rng(capacity * 31 + (bulk ? 1 : 0));
      TieHeavyTree t = tie_heavy_tree(capacity, bulk, rng);
      for (const Point p : tie_heavy_points(t.entries, rng)) {
        const std::uint64_t residue = rng.index(10);
        // Named, so the non-owning filters do not outlive them.
        const auto none = [](std::uint64_t) { return false; };
        const auto tenth = [&](std::uint64_t id) { return id % 10 == residue; };
        const std::pair<const char*, IdFilter> filters[] = {
            {"none", none}, {"tenth", tenth}, {"all", kAcceptAll}};
        for (const auto& [name, accept] : filters) {
          SCOPED_TRACE(testing::Message()
                       << "capacity=" << capacity << " bulk=" << bulk
                       << " filter=" << name << " p=(" << p.x << ", " << p.y
                       << ")");
          double brute = std::numeric_limits<double>::infinity();
          for (const Entry& e : t.entries) {
            if (accept(e.id)) brute = std::min(brute, e.rect.distance(p));
          }
          const std::uint64_t fallbacks_before = t.tree.nearest_fallbacks();
          t.tree.reset_node_accesses();
          const double distance = t.tree.nearest_distance(p, accept);
          const std::uint64_t accesses = t.tree.node_accesses();
          const bool fell_back =
              t.tree.nearest_fallbacks() != fallbacks_before;
          t.tree.reset_node_accesses();
          EXPECT_EQ(distance, t.tree.nearest_distance_best_first(p, accept));
          EXPECT_EQ(accesses, t.tree.node_accesses());
          EXPECT_EQ(distance, brute);
          // With no entry accepted every node is read, whatever the order.
          if (std::string_view(name) == "none") {
            EXPECT_FALSE(fell_back);
          }
          ++calls;
          fallbacks += fell_back ? 1 : 0;
        }
      }
    }
  }
  // Both paths ran: the depth-first count and the best-first fallback.
  EXPECT_GT(fallbacks, 0u);
  EXPECT_LT(fallbacks, calls);
}

TEST(RStarTreeNearestTest, NonFinitePositionsMatchTheBestFirstSearch) {
  Rng rng(5);
  TieHeavyTree t = tie_heavy_tree(8, true, rng);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Point p :
       {Point{kInf, 3.0}, Point{-kInf, kInf}, Point{nan, 1.0}}) {
    t.tree.reset_node_accesses();
    const double distance = t.tree.nearest_distance(p);
    const std::uint64_t accesses = t.tree.node_accesses();
    t.tree.reset_node_accesses();
    const double reference = t.tree.nearest_distance_best_first(p);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(distance),
              std::bit_cast<std::uint64_t>(reference));
    EXPECT_EQ(accesses, t.tree.node_accesses());
  }
}

TEST(RStarTreeTest, BulkLoadEmptyAndTiny) {
  const RStarTree empty = RStarTree::bulk_load({});
  EXPECT_TRUE(empty.empty());
  empty.check_invariants();

  RStarTree one = RStarTree::bulk_load({{Rect(0, 0, 1, 1), 7}});
  EXPECT_EQ(one.size(), 1u);
  one.check_invariants();
  EXPECT_EQ(search(one, Rect(0, 0, 2, 2)).size(), 1u);
}

class BulkLoadTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BulkLoadTest, MatchesBruteForceAndStaysMutable) {
  const std::size_t n = GetParam();
  Rng rng(n * 7 + 5);
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < n; ++i) {
    entries.push_back({random_rect(rng, 1000.0, 30.0), i});
  }
  RStarTree tree = RStarTree::bulk_load(entries);
  EXPECT_EQ(tree.size(), n);
  tree.check_invariants();

  for (int q = 0; q < 40; ++q) {
    const Rect window = random_rect(rng, 1000.0, 200.0);
    std::multiset<std::uint64_t> expected;
    for (const Entry& e : entries) {
      if (e.rect.intersects(window)) expected.insert(e.id);
    }
    EXPECT_EQ(ids_of(search(tree, window)), expected);
  }

  // The packed tree must accept further mutations.
  for (std::uint64_t i = 0; i < 50; ++i) {
    const Entry e{random_rect(rng, 1000.0, 30.0), n + i};
    tree.insert(e);
    entries.push_back(e);
  }
  for (std::size_t i = 0; i < entries.size(); i += 3) {
    EXPECT_TRUE(tree.erase(entries[i]));
  }
  tree.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadTest,
                         ::testing::Values(5u, 17u, 100u, 1000u, 5000u));

TEST(RStarTreeTest, BulkLoadQueryQualityComparableToIncremental) {
  Rng rng(9);
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    entries.push_back({random_rect(rng, 10000.0, 50.0), i});
  }
  RStarTree incremental;
  for (const Entry& e : entries) incremental.insert(e);
  RStarTree packed = RStarTree::bulk_load(entries);
  // Same answers...
  const Rect probe(2000, 2000, 4000, 4000);
  EXPECT_EQ(ids_of(search(packed, probe)), ids_of(search(incremental, probe)));
  // ...with comparable node reads per window query (STR's win is build
  // time; R*'s insertion heuristics already pack well).
  packed.reset_node_accesses();
  incremental.reset_node_accesses();
  Rng qrng(11);
  for (int q = 0; q < 200; ++q) {
    const Rect window = random_rect(qrng, 10000.0, 400.0);
    (void)search(packed, window);
  }
  qrng = Rng(11);
  for (int q = 0; q < 200; ++q) {
    const Rect window = random_rect(qrng, 10000.0, 400.0);
    (void)search(incremental, window);
  }
  EXPECT_LE(static_cast<double>(packed.node_accesses()),
            1.25 * static_cast<double>(incremental.node_accesses()));
}

TEST(RStarTreeTest, InterleavedInsertEraseStaysConsistent) {
  Rng rng(99);
  RStarTree tree(8);
  std::vector<Entry> live;
  std::uint64_t next_id = 0;
  for (int round = 0; round < 2000; ++round) {
    if (live.empty() || rng.chance(0.6)) {
      const Entry e{random_rect(rng, 200.0, 15.0), next_id++};
      tree.insert(e);
      live.push_back(e);
    } else {
      const std::size_t pick = rng.index(live.size());
      EXPECT_TRUE(tree.erase(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if (round % 250 == 0) tree.check_invariants();
  }
  tree.check_invariants();
  EXPECT_EQ(tree.size(), live.size());
  std::multiset<std::uint64_t> expected;
  for (const Entry& e : live) expected.insert(e.id);
  EXPECT_EQ(ids_of(search(tree, Rect(-10, -10, 300, 300))), expected);
}


// ---------------------------------------------------------------------------
// Pinned replay: seeded sequences of bulk loads, inserts (enough to force
// reinserts and splits), erases (enough to force condensing and root
// collapse) and duplicate ids, hashed into one digest per node capacity.
// The digest covers every probe and visit result in visit order, each
// probe's returned accesses, node_accesses() after every operation,
// nearest_distance with and without a filter, and height(). Any change to
// the tree's layout must reproduce these values exactly: the cost model
// charges node accesses, and the visit order decides trigger-log order.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const Entry& e) {
    add(e.id);
    add(e.rect.lo().x);
    add(e.rect.lo().y);
    add(e.rect.hi().x);
    add(e.rect.hi().y);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t pinned_replay(std::size_t capacity) {
  Rng rng(capacity * 101 + 7);
  Digest digest;
  const auto make = [&](std::uint64_t id) {
    return Entry{random_rect(rng, 400.0, 30.0), id};
  };
  // Ids repeat (i % 150), and one (id, rect) pair is present three times.
  std::vector<Entry> live;
  for (std::uint64_t i = 0; i < 200; ++i) live.push_back(make(i % 150));
  live.push_back(live[3]);
  live.push_back(live[3]);
  RStarTree tree = RStarTree::bulk_load(live, capacity);

  const auto after_op = [&] {
    digest.add(tree.node_accesses());
    digest.add(static_cast<std::uint64_t>(tree.height()));
    digest.add(static_cast<std::uint64_t>(tree.size()));
  };
  const auto queries = [&] {
    for (int q = 0; q < 4; ++q) {
      const Point p{rng.uniform(-20.0, 420.0), rng.uniform(-20.0, 420.0)};
      digest.add(tree.probe(p, [&](const Entry& e) {
        digest.add(e);
        return true;
      }));
      // The same probe stopped after its second hit.
      int hits = 0;
      digest.add(tree.probe(p, [&](const Entry& e) {
        digest.add(e);
        return ++hits < 2;
      }));
      tree.visit(Rect(p, p), [&](const Entry& e) {
        digest.add(e);
        return true;
      });
      after_op();
    }
    const Rect window = random_rect(rng, 400.0, 80.0);
    tree.visit(window, [&](const Entry& e) {
      digest.add(e);
      return true;
    });
    after_op();
    int hits = 0;
    tree.visit(window, [&](const Entry& e) {
      digest.add(e);
      return ++hits < 3;
    });
    after_op();
    const Point p{rng.uniform(-50.0, 450.0), rng.uniform(-50.0, 450.0)};
    const std::uint64_t residue = rng.index(3);
    digest.add(tree.nearest_distance(p));
    after_op();
    digest.add(tree.nearest_distance(
        p, [&](std::uint64_t id) { return id % 3 == residue; }));
    after_op();
  };
  const auto insert = [&](const Entry& e) {
    tree.insert(e);
    live.push_back(e);
    after_op();
  };
  const auto erase_at = [&](std::size_t i) {
    digest.add(static_cast<std::uint64_t>(tree.erase(live[i])));
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    after_op();
  };

  queries();
  // Mixed inserts (some duplicating a live entry) and erases, some of
  // entries that are not there.
  std::uint64_t next_id = 150;
  for (int op = 0; op < 600; ++op) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.55 || live.empty()) {
      insert(make(next_id++));
    } else if (roll < 0.62) {
      insert(live[rng.index(live.size())]);
    } else if (roll < 0.67) {
      digest.add(static_cast<std::uint64_t>(tree.erase(make(next_id++))));
      after_op();
    } else {
      erase_at(rng.index(live.size()));
    }
    if (op % 10 == 0) queries();
    if (op % 100 == 0) tree.check_invariants();
  }
  // Drain to three entries: condensing all the way to root collapse.
  while (live.size() > 3) {
    erase_at(rng.index(live.size()));
    if (live.size() % 10 == 0) queries();
  }
  tree.check_invariants();
  queries();
  // Regrow from the collapsed root, then drain to empty.
  for (int op = 0; op < 300; ++op) {
    insert(make(next_id++));
    if (op % 10 == 0) queries();
  }
  tree.check_invariants();
  while (!live.empty()) {
    erase_at(rng.index(live.size()));
    if (live.size() % 25 == 0) queries();
  }
  tree.check_invariants();
  queries();
  return digest.value();
}

TEST(RStarTreePinTest, ReplayDigestsArePinned) {
  const std::pair<std::size_t, std::uint64_t> kPinned[] = {
      {4, 0xf5aa4892dc0d5ebfull},
      {8, 0x2e56765ca520f83aull},
      {16, 0xf224c11241c31114ull}};
  for (const auto& [capacity, digest] : kPinned) {
    const std::uint64_t replayed = pinned_replay(capacity);
    EXPECT_EQ(replayed, digest)
        << "capacity=" << capacity << " digest=0x" << std::hex << replayed;
  }
}

// ---------------------------------------------------------------------------
// Pinned bulk loads: the STR layout at entry counts around one and two
// nodes' worth, where the tail balancing of a slab changes branch, and at
// counts deep enough for three and four levels. Half the boxes sit on a
// coarse lattice so their centres tie and the stable sorts decide the
// order. The digest covers height(), node_accesses(), every probe's hits
// and returned accesses, window-visit order and nearest_distance.
// ---------------------------------------------------------------------------

std::uint64_t pinned_bulk_load(std::size_t capacity, std::size_t count) {
  Rng rng(capacity * 7919 + count);
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (i % 2 == 0) {
      entries.push_back({random_rect(rng, 400.0, 30.0), i});
    } else {
      const Point lo{20.0 * static_cast<double>(rng.index(20)),
                     20.0 * static_cast<double>(rng.index(20))};
      const double side = 10.0 * static_cast<double>(1 + rng.index(3));
      entries.push_back({Rect(lo, {lo.x + side, lo.y + side}), i});
    }
  }
  RStarTree tree = RStarTree::bulk_load(std::move(entries), capacity);
  tree.check_invariants();
  Digest digest;
  digest.add(static_cast<std::uint64_t>(tree.height()));
  for (int q = 0; q < 48; ++q) {
    const Point p{rng.uniform(-20.0, 420.0), rng.uniform(-20.0, 420.0)};
    digest.add(tree.probe(p, [&](const Entry& e) {
      digest.add(e);
      return true;
    }));
    tree.visit(random_rect(rng, 400.0, 80.0), [&](const Entry& e) {
      digest.add(e);
      return true;
    });
    digest.add(tree.node_accesses());
    digest.add(tree.nearest_distance(p));
    digest.add(tree.node_accesses());
  }
  return digest.value();
}

TEST(RStarTreePinTest, BulkLoadDigestsArePinned) {
  struct Pinned {
    std::size_t capacity;
    std::uint64_t digests[10];
  };
  const Pinned kPinned[] = {
      {4,
       {0x7918fe9246a7c45cull, 0xb180170664635c30ull,
        0x9feb7df374346f97ull, 0x6801a6ca42bf00a4ull,
        0x2f93140551c5fdd0ull, 0x982c9520dcc75cabull,
        0x2ec3e454140590dfull, 0xb01eb9b1c95241a3ull,
        0xe184b7c99887f2d5ull, 0x2653f99f14aab8full}},
      {8,
       {0xf9695be6fc33462aull, 0x611e97a010ac99bcull,
        0x82790fe9b73127beull, 0x74279bf01c2d4c34ull,
        0x7a9daa800183df88ull, 0xaaf70a54be1902ddull,
        0x1f5a230e4284e0e5ull, 0x8afa5f0f18f75d19ull,
        0x33525369b25a8051ull, 0x1ad3e342e4fd2377ull}},
      {16,
       {0xceecfad90e41701aull, 0x45bce1cc2399329eull,
        0x23db7eb35dea4a44ull, 0xdc5ec3a817ca32c0ull,
        0xf77ee6cd1c0eb66cull, 0x9dfea7a728c6426full,
        0xe4a604a203716aefull, 0x4e130fa6c73136fcull,
        0x3835b1f01d435b2bull, 0x6fe79b24b95931cull}}};
  for (const auto& [capacity, digests] : kPinned) {
    const std::size_t counts[] = {
        1, 2, capacity - 1, capacity, capacity + 1, 2 * capacity - 1,
        2 * capacity + 1, 202, 1000, 5000};
    for (std::size_t i = 0; i < std::size(counts); ++i) {
      const std::uint64_t loaded = pinned_bulk_load(capacity, counts[i]);
      EXPECT_EQ(loaded, digests[i])
          << "capacity=" << capacity << " count=" << counts[i]
          << " digest=0x" << std::hex << loaded;
    }
  }
}

// ---------------------------------------------------------------------------
// Pinned replace traffic: the write pattern of dynamics::SessionIndex, where
// each grant erases its id's old box and inserts the new one near it. The
// boxes are chosen to hit every tie ChooseSubtree can meet: points and
// zero-width segments, many snapped onto shared vertical "roads" (so some
// leaves have zero-width MBRs beside leaves that contain the new box),
// points stacked on road crossings (leaves whose MBR is one point, met by
// an equal box), copies of live boxes and boxes nested inside them, squares
// clipped to the universe, and the universe itself. Digested like the
// pinned replay above. Every coordinate the tree sees is scaled by `scale`,
// a power of two: at 2^500 the universe's area is within a factor 16 of the
// largest double, past the bound under which ChooseSubtree may skip a
// child's overlap sum.
// ---------------------------------------------------------------------------

std::uint64_t pinned_replace_replay(std::size_t capacity, double scale) {
  Rng rng(capacity * 313 + 11);
  Digest digest;
  static constexpr double kExtent = 1000.0;
  static constexpr double kRoad = 125.0;
  const Rect universe(0.0, 0.0, kExtent, kExtent);
  const auto clip = [](double v) { return std::clamp(v, 0.0, kExtent); };
  const auto road = [](double v) { return std::round(v / kRoad) * kRoad; };

  const auto scaled = [&](const Rect& r) {
    return Rect(r.lo().x * scale, r.lo().y * scale, r.hi().x * scale,
                r.hi().y * scale);
  };
  RStarTree tree(capacity);
  std::vector<Rect> boxes;  // the live box of id i, unscaled
  const auto after_op = [&] {
    digest.add(tree.node_accesses());
    digest.add(static_cast<std::uint64_t>(tree.height()));
    digest.add(static_cast<std::uint64_t>(tree.size()));
  };
  const auto queries = [&] {
    const Point p{rng.uniform(-10.0, kExtent + 10.0),
                  rng.uniform(-10.0, kExtent + 10.0)};
    digest.add(tree.probe({road(p.x) * scale, p.y * scale},
                          [&](const Entry& e) {
      digest.add(e);
      return true;
    }));
    tree.visit(scaled(random_rect(rng, kExtent, 150.0)),
               [&](const Entry& e) {
                 digest.add(e);
                 return true;
               });
    after_op();
    digest.add(tree.nearest_distance({p.x * scale, p.y * scale}));
    after_op();
  };
  // A new box near `old`, of one of the kinds above.
  const auto near = [&](const Rect& old) {
    const Point c = old.center();
    const Point p{clip(c.x + rng.uniform(-60.0, 60.0)),
                  clip(c.y + rng.uniform(-60.0, 60.0))};
    const double kind = rng.uniform(0.0, 1.0);
    if (kind < 0.22) {
      return Rect::centered_square(p, rng.uniform(0.0, 90.0))
          .intersection(universe)
          .value_or(Rect(p, p));
    }
    if (kind < 0.36) return Rect(Point{road(p.x), p.y}, Point{road(p.x), p.y});
    if (kind < 0.50) {
      const double y_hi = clip(p.y + rng.uniform(0.0, 70.0));
      return Rect(road(p.x), p.y, road(p.x), y_hi);
    }
    if (kind < 0.56) {
      return Rect(p.x, road(p.y), clip(p.x + rng.uniform(0.0, 70.0)),
                  road(p.y));
    }
    if (kind < 0.64) {
      const Point q{road(p.x), road(p.y)};
      return Rect(q, q);
    }
    const Rect& other = boxes[rng.index(boxes.size())];
    if (kind < 0.74) return other;
    if (kind < 0.84) {
      // Nested inside a live box: a random sub-box of it.
      const double x0 = rng.uniform(other.lo().x, other.hi().x);
      const double y0 = rng.uniform(other.lo().y, other.hi().y);
      const double x1 = rng.uniform(x0, other.hi().x);
      const double y1 = rng.uniform(y0, other.hi().y);
      return Rect(x0, y0, std::min(x1, other.hi().x),
                  std::min(y1, other.hi().y));
    }
    if (kind < 0.88) return universe;
    return Rect(p, p);
  };

  // Every id records a first grant: inserts into a growing tree.
  constexpr std::uint64_t kIds = 320;
  for (std::uint64_t id = 0; id < kIds; ++id) {
    boxes.push_back(id == 0 ? Rect(500.0, 500.0, 500.0, 500.0)
                            : near(boxes[rng.index(boxes.size())]));
    tree.insert({scaled(boxes.back()), id});
    after_op();
  }
  queries();
  // Re-records: erase the old box, insert the new one. Some ids are
  // cleared (erase only) and later record afresh (insert only).
  std::vector<bool> cleared(kIds, false);
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t id = rng.index(kIds);
    if (!cleared[id]) {
      digest.add(
          static_cast<std::uint64_t>(tree.erase({scaled(boxes[id]), id})));
      after_op();
    }
    if (!cleared[id] && rng.uniform(0.0, 1.0) < 0.04) {
      cleared[id] = true;
    } else {
      boxes[id] = near(boxes[id]);
      cleared[id] = false;
      tree.insert({scaled(boxes[id]), id});
      after_op();
    }
    if (op % 20 == 0) queries();
    if (op % 500 == 0) tree.check_invariants();
  }
  tree.check_invariants();
  // Clear every id left: condensing down to an empty root.
  for (std::uint64_t id = 0; id < kIds; ++id) {
    if (cleared[id]) continue;
    digest.add(
        static_cast<std::uint64_t>(tree.erase({scaled(boxes[id]), id})));
    after_op();
    if (id % 16 == 0) queries();
  }
  tree.check_invariants();
  EXPECT_TRUE(tree.empty());
  return digest.value();
}

TEST(RStarTreePinTest, ReplaceTrafficDigestsArePinned) {
  struct Pinned {
    std::size_t capacity;
    int scale_exponent;
    std::uint64_t digest;
  };
  const Pinned kPinned[] = {{4, 0, 0xede51ca989fe5385ull},
                            {8, 0, 0xfc32eb0266258882ull},
                            {16, 0, 0x2a7f86eee2b223ffull},
                            {4, 500, 0xd4f214ac866be784ull},
                            {8, 500, 0xc62c35e5ebb5385full},
                            {16, 500, 0x9f6243e2d8d86da7ull}};
  for (const auto& [capacity, scale_exponent, digest] : kPinned) {
    const std::uint64_t replayed =
        pinned_replace_replay(capacity, std::ldexp(1.0, scale_exponent));
    EXPECT_EQ(replayed, digest)
        << "capacity=" << capacity << " scale=2^" << scale_exponent
        << " digest=0x" << std::hex << replayed;
  }
}

TEST(RStarTreePinTest, ReplaceTrafficSurvivesNanCosts) {
  // Past 2^501 the grown areas of a leaf-parent's children overflow to
  // infinity and their overlap sums become inf - inf: no cost compares,
  // and ChooseSubtree falls back to the first candidate. The replay checks
  // the tree's invariants as it goes.
  const std::pair<std::size_t, double> kRuns[] = {
      {4, 501.25}, {8, 501.25}, {4, 502.0}, {8, 502.0}, {16, 502.0}};
  for (const auto& [capacity, scale_exponent] : kRuns) {
    EXPECT_NO_THROW(
        (void)pinned_replace_replay(capacity, std::exp2(scale_exponent)))
        << "capacity=" << capacity << " scale=2^" << scale_exponent;
  }
}

TEST(RStarTreeTest, ChooseSubtreeKeepsItsChoiceWhenAreasOverflow) {
  // Two leaves under the root: one of three boxes whose area overflows to
  // infinity, one of two small boxes left of them. A point on the big
  // leaf's left edge is contained by it, yet its area enlargement is
  // inf - inf = NaN, and the small leaf, which grows up to that edge
  // without overlapping it, comes first with overlap enlargement 0. Costs
  // are compared in slot order, and no cost beats a NaN one's tie, so the
  // small leaf keeps the point.
  RStarTree tree(4);
  const Rect huge(-1e155, -1e155, 1e155, 1e155);
  for (std::uint64_t id = 1; id <= 3; ++id) tree.insert({huge, id});
  tree.insert({Rect(-2e155, 0.0, -1.5e155, 1.0), 10});
  tree.insert({Rect(-2e155, 0.0, -1.5e155, 1.0), 11});
  ASSERT_EQ(tree.height(), 2u);
  const Point edge{-1e155, 0.5};
  tree.insert({Rect(edge, edge), 99});
  tree.check_invariants();
  // Both leaves hold the point, so the probe reads the root and both.
  std::vector<std::uint64_t> hits;
  EXPECT_EQ(tree.probe(edge,
                       [&](const Entry& e) {
                         hits.push_back(e.id);
                         return true;
                       }),
            3u);
  EXPECT_EQ(hits, (std::vector<std::uint64_t>{1, 2, 3, 99}));
  std::vector<std::uint64_t> order;
  for (const Entry& e : search(tree, Rect(-1e156, -1e156, 1e156, 1e156))) {
    order.push_back(e.id);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 10, 11, 99}));
}

TEST(RStarTreeTest, ConcurrentProbesMatchASerialRun) {
  // Shard tasks probe their trees from the shared pool's workers. probe()
  // only reads the tree, so workers probing one tree at once must see
  // exactly what a serial run sees: the same hits in the same order and
  // the same accesses.
  Rng rng(21);
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    entries.push_back({random_rect(rng, 1000.0, 40.0), i});
  }
  const RStarTree tree = RStarTree::bulk_load(entries, 8);
  std::vector<Point> points;
  for (int i = 0; i < 4000; ++i) {
    points.push_back({rng.uniform(0.0, 1040.0), rng.uniform(0.0, 1040.0)});
  }
  const auto probe_digest = [&](Point p) {
    Digest digest;
    digest.add(tree.probe(p, [&](const Entry& e) {
      digest.add(e);
      return true;
    }));
    return digest.value();
  };
  std::vector<std::uint64_t> serial;
  for (const Point p : points) serial.push_back(probe_digest(p));
  constexpr std::size_t kChunk = 100;
  std::vector<std::uint64_t> parallel(points.size());
  ParallelTickExecutor::shared().run(
      points.size() / kChunk, [&](std::size_t chunk) {
        for (std::size_t i = chunk * kChunk; i < (chunk + 1) * kChunk; ++i) {
          parallel[i] = probe_digest(points[i]);
        }
      });
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace salarm::index
