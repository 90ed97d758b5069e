// Micro-benchmarks (google-benchmark): R*-tree operations at the alarm
// index's working sizes.
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "index/rstar_tree.h"

namespace {

using salarm::Rng;
using salarm::geo::Point;
using salarm::geo::Rect;
using salarm::index::Entry;
using salarm::index::RStarTree;

Rect random_alarm(Rng& rng, double extent) {
  const Point c{rng.uniform(0, extent), rng.uniform(0, extent)};
  return Rect::centered_square(c, rng.uniform(100, 500));
}

RStarTree build_tree(std::size_t n, double extent) {
  Rng rng(7);
  RStarTree tree;
  for (std::uint64_t i = 0; i < n; ++i) {
    tree.insert({random_alarm(rng, extent), i});
  }
  return tree;
}

void BM_RTreeInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    RStarTree tree = build_tree(n, 32000.0);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RTreeInsert)->Arg(1000)->Arg(10000);

// The grant index's write path (dynamics::SessionIndex::record): each
// operation erases one id's box and inserts it again moved up to 50 m.
void BM_RTreeReplace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<Rect> boxes;
  RStarTree tree;
  for (std::uint64_t i = 0; i < n; ++i) {
    boxes.push_back(random_alarm(rng, 32000.0));
    tree.insert({boxes.back(), i});
  }
  std::uint64_t id = 0;
  for (auto _ : state) {
    Rect& box = boxes[id];
    benchmark::DoNotOptimize(tree.erase({box, id}));
    const Point c = box.center();
    const Point moved{c.x + rng.uniform(-50, 50), c.y + rng.uniform(-50, 50)};
    box = Rect::centered_square(moved, box.width());
    tree.insert({box, id});
    id = (id + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RTreeReplace)->Arg(200)->Arg(2000);

void BM_RTreeBulkLoad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<Entry> entries;
  for (std::uint64_t i = 0; i < n; ++i) {
    entries.push_back({random_alarm(rng, 32000.0), i});
  }
  for (auto _ : state) {
    RStarTree tree = RStarTree::bulk_load(entries);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000);

void BM_RTreePointQuery(benchmark::State& state) {
  const auto tree = build_tree(static_cast<std::size_t>(state.range(0)),
                               32000.0);
  Rng rng(9);
  for (auto _ : state) {
    const Point p{rng.uniform(0, 32000), rng.uniform(0, 32000)};
    std::size_t hits = 0;
    tree.visit(Rect(p, p), [&](const Entry&) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RTreePointQuery)->Arg(1000)->Arg(10000);

// The alarm probe of a position update: probe(), which returns its node
// accesses instead of counting them.
void BM_RTreeProbe(benchmark::State& state) {
  const auto tree = build_tree(static_cast<std::size_t>(state.range(0)),
                               32000.0);
  Rng rng(9);
  for (auto _ : state) {
    const Point p{rng.uniform(0, 32000), rng.uniform(0, 32000)};
    std::size_t hits = 0;
    const std::uint64_t accesses = tree.probe(p, [&](const Entry&) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
    benchmark::DoNotOptimize(accesses);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RTreeProbe)->Arg(1000)->Arg(10000);

void BM_RTreeWindowQuery(benchmark::State& state) {
  const auto tree = build_tree(static_cast<std::size_t>(state.range(0)),
                               32000.0);
  Rng rng(11);
  for (auto _ : state) {
    const Point c{rng.uniform(0, 32000), rng.uniform(0, 32000)};
    const auto window = Rect::centered_square(c, 1581.0);  // 2.5 km^2 cell
    std::size_t hits = 0;
    tree.visit(window, [&](const Entry&) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RTreeWindowQuery)->Arg(1000)->Arg(10000);

void BM_RTreeNearest(benchmark::State& state) {
  const auto tree = build_tree(static_cast<std::size_t>(state.range(0)),
                               32000.0);
  Rng rng(13);
  for (auto _ : state) {
    const Point p{rng.uniform(0, 32000), rng.uniform(0, 32000)};
    benchmark::DoNotOptimize(tree.nearest_distance(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RTreeNearest)->Arg(1000)->Arg(10000);

// The safe-period baseline's search: nearest_distance keeping about one
// entry in ten, as a subscriber's relevance filter does on the alarm index.
void BM_RTreeNearestFiltered(benchmark::State& state) {
  const auto tree = build_tree(static_cast<std::size_t>(state.range(0)),
                               32000.0);
  Rng rng(13);
  for (auto _ : state) {
    const Point p{rng.uniform(0, 32000), rng.uniform(0, 32000)};
    benchmark::DoNotOptimize(tree.nearest_distance(
        p, [](std::uint64_t id) { return id % 10 == 0; }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RTreeNearestFiltered)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
