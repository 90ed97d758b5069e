#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitio.h"
#include "common/error.h"
#include "common/rng.h"
#include "geometry/rect.h"
#include "saferegion/pyramid.h"

namespace salarm::saferegion {
namespace {

using geo::Point;
using geo::Rect;

const Rect kCell(0, 0, 900, 900);

TEST(PyramidTest, ValidatesInputs) {
  PyramidConfig cfg;
  cfg.height = 0;
  EXPECT_THROW(PyramidBitmap::build(kCell, {}, cfg),
               salarm::PreconditionError);
  cfg = {};
  cfg.fanout_u = 1;
  EXPECT_THROW(PyramidBitmap::build(kCell, {}, cfg),
               salarm::PreconditionError);
  cfg = {};
  EXPECT_THROW(PyramidBitmap::build(Rect(0, 0, 0, 10), {}, cfg),
               salarm::PreconditionError);
}

TEST(PyramidTest, EmptyCellIsEntirelySafe) {
  const auto bm = PyramidBitmap::build(kCell, {}, PyramidConfig{});
  EXPECT_DOUBLE_EQ(bm.coverage(), 1.0);
  EXPECT_EQ(bm.bit_size(), 1u);  // single safe root bit
  EXPECT_EQ(bm.node_count(), 1u);
  const auto c = bm.locate({450, 450});
  EXPECT_TRUE(c.safe);
  EXPECT_EQ(c.levels, 1);
}

TEST(PyramidTest, FullyCoveredCellIsSolidUnsafe) {
  const std::vector<Rect> alarms{Rect(-10, -10, 910, 910)};
  const auto bm = PyramidBitmap::build(kCell, alarms, PyramidConfig{});
  EXPECT_DOUBLE_EQ(bm.coverage(), 0.0);
  EXPECT_EQ(bm.bit_size(), 2u);  // unsafe root + solid flag
  const auto c = bm.locate({450, 450});
  EXPECT_FALSE(c.safe);
  EXPECT_EQ(c.levels, 1);  // no descent into a solid block
}

TEST(PyramidTest, GbsrIsHeightOne) {
  // One alarm in the center third: the root subdivides once; the center
  // child is unsafe, the 8 others safe.
  const std::vector<Rect> alarms{Rect(350, 350, 550, 550)};
  PyramidConfig cfg;
  cfg.height = 1;
  cfg.max_bits = 0;
  const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
  // Root (2 bits: unsafe+subdivided) + 9 leaf bits.
  EXPECT_EQ(bm.bit_size(), 11u);
  EXPECT_NEAR(bm.coverage(), 8.0 / 9.0, 1e-12);
  EXPECT_TRUE(bm.locate({100, 100}).safe);
  EXPECT_FALSE(bm.locate({450, 450}).safe);
  EXPECT_EQ(bm.locate({450, 450}).levels, 2);
}

TEST(PyramidTest, DeeperPyramidRefinesCoverage) {
  const std::vector<Rect> alarms{Rect(350, 350, 550, 550)};
  double prev_coverage = 0.0;
  for (int h = 1; h <= 6; ++h) {
    PyramidConfig cfg;
    cfg.height = h;
    const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
    const double cov = bm.coverage();
    EXPECT_GE(cov, prev_coverage - 1e-12) << "height " << h;
    prev_coverage = cov;
  }
  // The alarm covers (200/900)^2 ≈ 4.94% of the cell; deep refinement
  // should approach 1 - that.
  EXPECT_NEAR(prev_coverage, 1.0 - (200.0 * 200.0) / (900.0 * 900.0), 0.01);
}

TEST(PyramidTest, LocateCountsDescentLevels) {
  const std::vector<Rect> alarms{Rect(350, 350, 550, 550)};
  PyramidConfig cfg;
  cfg.height = 4;
  const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
  // Far corner: safe at level 1 (the 3x3 child).
  EXPECT_EQ(bm.locate({50, 50}).levels, 2);
  // Points near the alarm boundary need deeper descents.
  const auto near_boundary = bm.locate({352, 450});
  EXPECT_GE(near_boundary.levels, 3);
  EXPECT_LE(near_boundary.levels, cfg.height + 1);
  // Inside the alarm: unsafe, found at whatever level turns solid.
  EXPECT_FALSE(bm.locate({450, 450}).safe);
}

TEST(PyramidTest, SafeRegionNeverOverlapsAlarms) {
  // Property: any point strictly inside an alarm region must be unsafe.
  Rng rng(17);
  for (int round = 0; round < 30; ++round) {
    std::vector<Rect> alarms;
    const int n = 1 + static_cast<int>(rng.index(6));
    for (int i = 0; i < n; ++i) {
      const Point c{rng.uniform(-50, 950), rng.uniform(-50, 950)};
      alarms.push_back(Rect::centered_square(c, rng.uniform(30, 400)));
    }
    PyramidConfig cfg;
    cfg.height = 1 + static_cast<int>(rng.index(5));
    const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
    for (int probe = 0; probe < 200; ++probe) {
      const Point p{rng.uniform(0, 900), rng.uniform(0, 900)};
      const auto c = bm.locate(p);
      if (c.safe) {
        for (const Rect& a : alarms) {
          EXPECT_FALSE(a.interior_contains(p))
              << "safe point inside alarm " << a.to_string();
        }
      }
    }
  }
}

TEST(PyramidTest, CoverageMatchesMonteCarlo) {
  Rng rng(23);
  std::vector<Rect> alarms{Rect(100, 100, 400, 300), Rect(600, 500, 800, 900),
                           Rect(300, 250, 700, 450)};
  PyramidConfig cfg;
  cfg.height = 6;
  const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
  int safe = 0;
  const int samples = 20000;
  for (int i = 0; i < samples; ++i) {
    const Point p{rng.uniform(0, 900), rng.uniform(0, 900)};
    if (bm.locate(p).safe) ++safe;
  }
  EXPECT_NEAR(bm.coverage(), static_cast<double>(safe) / samples, 0.02);
}

TEST(PyramidTest, OpsCounterCountsIntersectionTests) {
  const std::vector<Rect> alarms{Rect(350, 350, 550, 550)};
  std::uint64_t ops = 0;
  PyramidConfig cfg;
  cfg.height = 3;
  (void)PyramidBitmap::build(kCell, alarms, cfg, &ops);
  EXPECT_GT(ops, 0u);
  std::uint64_t deeper_ops = 0;
  cfg.height = 6;
  (void)PyramidBitmap::build(kCell, alarms, cfg, &deeper_ops);
  EXPECT_GT(deeper_ops, ops);
}

TEST(PyramidTest, PaperExampleBitAccounting) {
  // Figure 3(d): a 3x3 pyramid of height 2 where level 1 has 3 safe cells
  // and 6 subdivided cells costs 1 + 9 + 54 paper-bits = 64, and our
  // decodable encoding costs 2 + (3 + 2*6) + 54 = 71 bits.
  // Reproduce that shape: an alarm layout leaving exactly 3 of the 9 level-1
  // cells alarm-free and all 6 others partially covered.
  // Level-1 cells are 300x300. Alarms clip corners of 6 cells:
  std::vector<Rect> alarms;
  const std::vector<std::pair<int, int>> unsafe_cells{
      {0, 0}, {1, 0}, {2, 0}, {0, 1}, {0, 2}, {1, 2}};
  for (const auto& [cx, cy] : unsafe_cells) {
    const double x = cx * 300.0;
    const double y = cy * 300.0;
    alarms.push_back(Rect(x + 100, y + 100, x + 160, y + 160));
  }
  PyramidConfig cfg;
  cfg.height = 2;
  const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
  EXPECT_EQ(bm.paper_bit_size(), 64u);
  EXPECT_EQ(bm.bit_size(), 71u);
}

TEST(PyramidTest, SerializeRoundTrips) {
  Rng rng(31);
  for (int round = 0; round < 25; ++round) {
    std::vector<Rect> alarms;
    const int n = static_cast<int>(rng.index(8));
    for (int i = 0; i < n; ++i) {
      const Point c{rng.uniform(0, 900), rng.uniform(0, 900)};
      alarms.push_back(Rect::centered_square(c, rng.uniform(20, 350)));
    }
    PyramidConfig cfg;
    cfg.height = 1 + static_cast<int>(rng.index(6));
    cfg.fanout_u = 2 + static_cast<int>(rng.index(3));
    cfg.fanout_v = 2 + static_cast<int>(rng.index(3));
    const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
    const auto bytes = bm.serialize();
    EXPECT_EQ(bytes.size(), bm.byte_size());
    const auto restored =
        PyramidBitmap::deserialize(kCell, cfg, bytes, bm.bit_size());
    EXPECT_TRUE(bm == restored);
    // Containment answers agree everywhere.
    for (int probe = 0; probe < 100; ++probe) {
      const Point p{rng.uniform(0, 900), rng.uniform(0, 900)};
      const auto a = bm.locate(p);
      const auto b = restored.locate(p);
      EXPECT_EQ(a.safe, b.safe);
      EXPECT_EQ(a.levels, b.levels);
    }
  }
}

TEST(PyramidTest, DeserializeRejectsMalformedStreams) {
  const std::vector<Rect> alarms{Rect(350, 350, 550, 550)};
  PyramidConfig cfg;
  cfg.height = 2;
  const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
  auto bytes = bm.serialize();
  // Truncated stream.
  EXPECT_THROW(
      PyramidBitmap::deserialize(kCell, cfg, bytes, bm.bit_size() - 5),
      salarm::PreconditionError);
  // Excess bits claimed.
  EXPECT_THROW(PyramidBitmap::deserialize(kCell, cfg, bytes,
                                          bytes.size() * 8 + 1),
               salarm::PreconditionError);
}

TEST(PyramidTest, DeserializeAllocatesNoMoreNodesThanBitsRemain) {
  // 259 bytes claiming a 255 x 255 fan-out: a subdivided root, then 1,033
  // subdivided level-1 nodes before the bits run out. Every node costs at
  // least one bit, so the root's 65,025 children already overrun the
  // stream: it is rejected before they are allocated.
  PyramidConfig cfg;
  cfg.fanout_u = 255;
  cfg.fanout_v = 255;
  cfg.height = 2;
  BitWriter writer;
  for (int node = 0; node < 1034; ++node) {
    writer.push(false);
    writer.push(true);
  }
  ASSERT_EQ(writer.bytes().size(), 259u);
  EXPECT_THROW(PyramidBitmap::deserialize(kCell, cfg, writer.bytes(),
                                          writer.bit_count()),
               salarm::PreconditionError);

  // The bound is tight: a root whose 65,025 children take one bit each
  // leaves exactly as many bits as children, and decodes.
  cfg.height = 1;
  cfg.max_bits = 0;
  const auto bm =
      PyramidBitmap::build(kCell, {{Rect(100.0, 100.0, 101.0, 101.0)}}, cfg);
  ASSERT_EQ(bm.bit_size(), 2u + 255u * 255u);
  EXPECT_TRUE(PyramidBitmap::deserialize(kCell, cfg, bm.serialize(),
                                         bm.bit_size()) == bm);
}

TEST(PyramidTest, MaximumHeightReachesItsLastLevelAndRoundTrips) {
  // Height 12, the most validate allows, with no bit budget, around a
  // tiny alarm: every level's cell holding the alarm's corner is partly
  // covered, so the pyramid refines down to level 12.
  PyramidConfig cfg;
  cfg.height = 12;
  cfg.max_bits = 0;
  const Rect tiny(450.0, 450.0, 450.001, 450.001);
  const auto bm = PyramidBitmap::build(kCell, {{tiny}}, cfg);
  const auto deepest = bm.locate({450.0005, 450.0005});
  EXPECT_FALSE(deepest.safe);
  EXPECT_EQ(deepest.levels, 13);
  EXPECT_TRUE(bm.locate({100.0, 100.0}).safe);

  const auto restored =
      PyramidBitmap::deserialize(kCell, cfg, bm.serialize(), bm.bit_size());
  EXPECT_TRUE(restored == bm);
  EXPECT_EQ(restored.locate({450.0005, 450.0005}).levels, 13);
  EXPECT_EQ(restored.bit_size(), bm.bit_size());
}

TEST(PyramidTest, NonSquareFanout) {
  PyramidConfig cfg;
  cfg.fanout_u = 4;
  cfg.fanout_v = 2;
  cfg.height = 3;
  const std::vector<Rect> alarms{Rect(0, 0, 250, 500)};
  const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
  EXPECT_GT(bm.coverage(), 0.5);
  EXPECT_LT(bm.coverage(), 1.0);
  // Sound on probes.
  Rng rng(5);
  for (int probe = 0; probe < 200; ++probe) {
    const Point p{rng.uniform(0, 900), rng.uniform(0, 900)};
    if (bm.locate(p).safe) {
      EXPECT_FALSE(alarms[0].interior_contains(p));
    }
  }
}

TEST(PyramidTest, BitBudgetCapsEncodingSize) {
  // Many alarms at high height: unlimited build far exceeds a tight
  // budget; the capped build must respect it exactly while staying sound.
  Rng rng(41);
  std::vector<Rect> alarms;
  for (int i = 0; i < 12; ++i) {
    const Point c{rng.uniform(0, 900), rng.uniform(0, 900)};
    alarms.push_back(Rect::centered_square(c, rng.uniform(60, 250)));
  }
  PyramidConfig unlimited;
  unlimited.height = 7;
  unlimited.max_bits = 0;
  const auto full = PyramidBitmap::build(kCell, alarms, unlimited);

  PyramidConfig capped = unlimited;
  capped.max_bits = 256;
  const auto small = PyramidBitmap::build(kCell, alarms, capped);

  EXPECT_GT(full.bit_size(), 256u);
  EXPECT_LE(small.bit_size(), 256u);
  // Coverage can only shrink under the cap, never grow.
  EXPECT_LE(small.coverage(), full.coverage() + 1e-12);
  EXPECT_GT(small.coverage(), 0.0);
  // Soundness unaffected: safe points are never inside an alarm.
  for (int probe = 0; probe < 300; ++probe) {
    const Point p{rng.uniform(0, 900), rng.uniform(0, 900)};
    if (small.locate(p).safe) {
      for (const Rect& a : alarms) EXPECT_FALSE(a.interior_contains(p));
    }
    // Capped-safe implies uncapped-safe (the cap only coarsens).
    if (small.locate(p).safe) {
      EXPECT_TRUE(full.locate(p).safe);
    }
  }
  // Round-trips like any other pyramid.
  const auto restored = PyramidBitmap::deserialize(
      kCell, capped, small.serialize(), small.bit_size());
  EXPECT_TRUE(restored == small);
}

TEST(PyramidTest, BitBudgetMonotoneCoverage) {
  Rng rng(43);
  std::vector<Rect> alarms;
  for (int i = 0; i < 8; ++i) {
    const Point c{rng.uniform(0, 900), rng.uniform(0, 900)};
    alarms.push_back(Rect::centered_square(c, rng.uniform(80, 300)));
  }
  double prev = -1.0;
  for (const std::size_t budget : {64u, 128u, 256u, 512u, 2048u, 8192u}) {
    PyramidConfig cfg;
    cfg.height = 6;
    cfg.max_bits = budget;
    const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
    EXPECT_LE(bm.bit_size(), budget);
    EXPECT_GE(bm.coverage(), prev - 1e-12) << "budget " << budget;
    prev = bm.coverage();
  }
}

TEST(PyramidTest, IntersectMatchesPointwiseAnd) {
  Rng rng(59);
  for (int round = 0; round < 25; ++round) {
    auto make_alarms = [&](int n) {
      std::vector<Rect> alarms;
      for (int i = 0; i < n; ++i) {
        const Point c{rng.uniform(0, 900), rng.uniform(0, 900)};
        alarms.push_back(Rect::centered_square(c, rng.uniform(40, 350)));
      }
      return alarms;
    };
    PyramidConfig cfg;
    cfg.height = 1 + static_cast<int>(rng.index(5));
    const auto alarms_a = make_alarms(static_cast<int>(rng.index(5)));
    const auto alarms_b = make_alarms(static_cast<int>(rng.index(5)));
    const auto a = PyramidBitmap::build(kCell, alarms_a, cfg);
    const auto b = PyramidBitmap::build(kCell, alarms_b, cfg);
    std::uint64_t ops = 0;
    const auto both = a.intersect(b, &ops);
    EXPECT_GT(ops, 0u);
    for (int probe = 0; probe < 200; ++probe) {
      const Point p{rng.uniform(0, 900), rng.uniform(0, 900)};
      EXPECT_EQ(both.locate(p).safe,
                a.locate(p).safe && b.locate(p).safe)
          << "round " << round;
    }
    // Coverage of the intersection cannot exceed either input.
    EXPECT_LE(both.coverage(), a.coverage() + 1e-12);
    EXPECT_LE(both.coverage(), b.coverage() + 1e-12);
    // Round-trips like any built pyramid.
    const auto restored = PyramidBitmap::deserialize(
        kCell, cfg, both.serialize(), both.bit_size());
    EXPECT_TRUE(restored == both);
  }
}

TEST(PyramidTest, IntersectWithAllSafeIsIdentityOnSafeSet) {
  const std::vector<Rect> alarms{Rect(350, 350, 550, 550)};
  PyramidConfig cfg;
  cfg.height = 3;
  const auto bm = PyramidBitmap::build(kCell, alarms, cfg);
  const auto empty = PyramidBitmap::build(kCell, {}, cfg);
  const auto merged = bm.intersect(empty);
  Rng rng(61);
  for (int probe = 0; probe < 300; ++probe) {
    const Point p{rng.uniform(0, 900), rng.uniform(0, 900)};
    EXPECT_EQ(merged.locate(p).safe, bm.locate(p).safe);
  }
}

TEST(PyramidTest, IntersectRejectsMismatchedInputs) {
  PyramidConfig cfg;
  const auto a = PyramidBitmap::build(kCell, {}, cfg);
  PyramidConfig other = cfg;
  other.height = cfg.height + 1;
  const auto b = PyramidBitmap::build(kCell, {}, other);
  EXPECT_THROW((void)a.intersect(b), salarm::PreconditionError);
  const auto c =
      PyramidBitmap::build(Rect(0, 0, 500, 500), {}, cfg);
  EXPECT_THROW((void)a.intersect(c), salarm::PreconditionError);
}

TEST(PyramidTest, LocateRequiresPointInCell) {
  const auto bm = PyramidBitmap::build(kCell, {}, PyramidConfig{});
  EXPECT_THROW(bm.locate({-1, 0}), salarm::PreconditionError);
}

// ---------------------------------------------------------------------------
// Differential check of build() against the straightforward per-cell-vector
// build it replaced: every work item owns its alarm list and every
// subdivided cell copies its `touching` list into each child. The reference
// encodes its node array with the same level-order bit scheme, so the
// comparison covers nodes, bits and the ops count.
// ---------------------------------------------------------------------------

struct ReferenceBuild {
  std::vector<std::uint8_t> bytes;
  std::size_t bits = 0;
  std::size_t nodes = 0;
  std::uint64_t ops = 0;
};

ReferenceBuild reference_build(const Rect& cell,
                               std::span<const Rect> alarm_regions,
                               const PyramidConfig& config) {
  enum class State { kSafe, kSolidUnsafe, kSubdivided };
  struct Node {
    State state = State::kSolidUnsafe;
    int level = 0;
  };
  struct WorkItem {
    std::size_t node;
    Rect rect;
    std::vector<std::size_t> alarms;
  };
  ReferenceBuild out;
  std::vector<Node> nodes{Node{}};
  std::vector<std::size_t> all(alarm_regions.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<WorkItem> frontier{{0, cell, all}};
  const std::size_t uv =
      static_cast<std::size_t>(config.fanout_u) * config.fanout_v;
  std::size_t committed_bits = 0;
  while (!frontier.empty()) {
    const bool budget_allows_refinement =
        config.max_bits == 0 ||
        committed_bits + frontier.size() * (2 + 2 * uv) <= config.max_bits;
    std::vector<WorkItem> next;
    for (const WorkItem& item : frontier) {
      std::vector<std::size_t> touching;
      bool covered = false;
      for (const std::size_t a : item.alarms) {
        ++out.ops;
        if (!alarm_regions[a].interiors_intersect(item.rect)) continue;
        touching.push_back(a);
        if (alarm_regions[a].contains(item.rect)) {
          covered = true;
          break;
        }
      }
      const int level = nodes[item.node].level;
      if (touching.empty()) {
        nodes[item.node].state = State::kSafe;
        committed_bits += 1;
        continue;
      }
      if (covered || level >= config.height || !budget_allows_refinement) {
        nodes[item.node].state = State::kSolidUnsafe;
        committed_bits += level < config.height ? 2 : 1;
        continue;
      }
      committed_bits += 2;
      nodes[item.node].state = State::kSubdivided;
      const double w = item.rect.width() / config.fanout_u;
      const double h = item.rect.height() / config.fanout_v;
      for (int row = 0; row < config.fanout_v; ++row) {
        for (int col = 0; col < config.fanout_u; ++col) {
          nodes.push_back({State::kSolidUnsafe, level + 1});
          const Point lo{item.rect.lo().x + w * col,
                         item.rect.lo().y + h * row};
          next.push_back({nodes.size() - 1, Rect(lo, {lo.x + w, lo.y + h}),
                          touching});
        }
      }
    }
    frontier = std::move(next);
  }
  BitWriter writer;
  for (const Node& node : nodes) {
    writer.push(node.state == State::kSafe);
    if (node.state != State::kSafe && node.level < config.height) {
      writer.push(node.state == State::kSubdivided);
    }
  }
  out.bits = writer.bit_count();
  out.nodes = nodes.size();
  out.bytes = std::move(writer).take();
  return out;
}

/// A random base cell and 0–200 alarms around it: scattered rects of many
/// sizes (some outside the cell, some crossing its border), rects nested
/// inside earlier ones, exact duplicates, and at most one rect covering the
/// whole cell.
struct BuildInput {
  Rect cell;
  std::vector<Rect> alarms;
};

BuildInput random_build_input(Rng& rng) {
  BuildInput in;
  const Point lo{rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)};
  in.cell = Rect(lo, {lo.x + rng.uniform(50, 2000),
                      lo.y + rng.uniform(50, 2000)});
  const double w = in.cell.width();
  const double h = in.cell.height();
  const auto n = static_cast<std::size_t>(rng.index(201));
  // One input in five has a cell-covering alarm somewhere in its list.
  const std::size_t covering_at =
      n > 0 && rng.chance(0.2) ? rng.index(n) : n;
  for (std::size_t i = 0; i < n; ++i) {
    const double kind = rng.uniform(0, 1);
    if (i == covering_at) {
      const Point a{in.cell.lo().x - rng.uniform(0, w),
                    in.cell.lo().y - rng.uniform(0, h)};
      const Point b{in.cell.hi().x + rng.uniform(0, w),
                    in.cell.hi().y + rng.uniform(0, h)};
      in.alarms.push_back(Rect(a, b));
    } else if (kind < 0.2 && !in.alarms.empty()) {  // nested in an earlier one
      const Rect outer = in.alarms[rng.index(in.alarms.size())];
      const double x0 = rng.uniform(outer.lo().x, outer.hi().x);
      const double y0 = rng.uniform(outer.lo().y, outer.hi().y);
      in.alarms.push_back(Rect({x0, y0}, {rng.uniform(x0, outer.hi().x),
                                          rng.uniform(y0, outer.hi().y)}));
    } else if (kind < 0.25 && !in.alarms.empty()) {  // exact duplicate
      in.alarms.push_back(in.alarms[rng.index(in.alarms.size())]);
    } else {
      const Point c{
          rng.uniform(in.cell.lo().x - 0.2 * w, in.cell.hi().x + 0.2 * w),
          rng.uniform(in.cell.lo().y - 0.2 * h, in.cell.hi().y + 0.2 * h)};
      in.alarms.push_back(Rect::centered_square(
          c, std::min(w, h) * std::pow(10.0, rng.uniform(-2.5, -0.2))));
    }
  }
  return in;
}

TEST(PyramidTest, BuildMatchesReferenceBuild) {
  Rng rng(71);
  const std::pair<int, int> fanouts[] = {{2, 2}, {3, 3}, {4, 3}};
  const std::size_t budgets[] = {0, 64, 4096};
  for (const auto& [u, v] : fanouts) {
    for (int height = 1; height <= 7; ++height) {
      for (const std::size_t max_bits : budgets) {
        PyramidConfig cfg;
        cfg.fanout_u = u;
        cfg.fanout_v = v;
        cfg.height = height;
        cfg.max_bits = max_bits;
        for (int round = 0; round < 4; ++round) {
          const BuildInput in = random_build_input(rng);
          const ReferenceBuild ref = reference_build(in.cell, in.alarms, cfg);
          std::uint64_t ops = 0;
          const auto bm = PyramidBitmap::build(in.cell, in.alarms, cfg, &ops);
          SCOPED_TRACE(testing::Message()
                       << u << "x" << v << " h=" << height
                       << " max_bits=" << max_bits << " round=" << round
                       << " alarms=" << in.alarms.size());
          EXPECT_EQ(bm.node_count(), ref.nodes);
          EXPECT_TRUE(bm == PyramidBitmap::deserialize(in.cell, cfg, ref.bytes,
                                                       ref.bits));
          EXPECT_EQ(bm.bit_size(), ref.bits);
          EXPECT_EQ(bm.serialize(), ref.bytes);
          EXPECT_EQ(ops, ref.ops);
        }
      }
    }
  }
}

TEST(PyramidTest, ParallelBuildsMatchSerial) {
  // Shard workers build concurrently, each on its own thread's scratch.
  Rng rng(73);
  std::vector<BuildInput> inputs;
  std::vector<PyramidConfig> configs;
  for (int i = 0; i < 48; ++i) {
    inputs.push_back(random_build_input(rng));
    PyramidConfig cfg;
    cfg.fanout_u = 2 + static_cast<int>(rng.index(3));
    cfg.fanout_v = 2 + static_cast<int>(rng.index(3));
    cfg.height = 1 + static_cast<int>(rng.index(7));
    configs.push_back(cfg);
  }
  struct Built {
    std::vector<std::uint8_t> bytes;
    std::uint64_t ops = 0;
  };
  const auto build = [&](std::size_t i) {
    Built out;
    out.bytes = PyramidBitmap::build(inputs[i].cell, inputs[i].alarms,
                                     configs[i], &out.ops)
                    .serialize();
    return out;
  };
  std::vector<Built> serial;
  for (std::size_t i = 0; i < inputs.size(); ++i) serial.push_back(build(i));

  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the inputs from its own offset, three times, so
      // the threads interleave different builds.
      for (std::size_t k = 0; k < 3 * inputs.size(); ++k) {
        const std::size_t i = (t * 11 + k) % inputs.size();
        const Built got = build(i);
        if (got.bytes != serial[i].bytes || got.ops != serial[i].ops) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace salarm::saferegion
