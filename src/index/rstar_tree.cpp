#include "index/rstar_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "common/error.h"

namespace salarm::index {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fraction of a node reinserted on first overflow (R* paper: p = 30%).
constexpr double kReinsertFraction = 0.3;

/// Stable insertion sort: the permutation std::stable_sort gives under the
/// same strict order, without its temporary buffer. For the at most
/// capacity + 1 items of one node.
template <class Item, class Less>
void insertion_sort(std::vector<Item>& items, const Less& less) {
  for (std::size_t i = 1; i < items.size(); ++i) {
    Item item = items[i];
    std::size_t j = i;
    for (; j > 0 && less(item, items[j - 1]); --j) items[j] = items[j - 1];
    items[j] = item;
  }
}

// Two slots' coordinates in one vector (GCC/Clang vector extensions: one
// SSE2 register on x86-64, plain scalar code where there is no vector
// unit). A comparison yields all-ones (hit) or zero per lane.
using V2 = double __attribute__((vector_size(16)));
using V2i = std::int64_t __attribute__((vector_size(16)));

V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }

V2 splat(double x) { return V2{x, x}; }

/// The hit bits of the two slots at `i` (bits i and i + 1).
std::uint64_t mask2(V2i hit, std::size_t i) {
  return ((static_cast<std::uint64_t>(hit[0]) & 1u) |
          (static_cast<std::uint64_t>(hit[1]) & 2u))
         << i;
}

// std::min(a, b) and std::max(a, b), operand for operand, on both lanes.
V2 min2(V2 a, V2 b) { return b < a ? b : a; }
V2 max2(V2 a, V2 b) { return a < b ? b : a; }

/// geo::overlap_area(r, s) for two boxes r (one per lane) and s, or +0 in
/// the lanes of `skip`.
V2 overlap2(V2 r_lo_x, V2 r_lo_y, V2 r_hi_x, V2 r_hi_y, V2 s_lo_x, V2 s_lo_y,
            V2 s_hi_x, V2 s_hi_y, V2i skip) {
  const V2 zero = {0.0, 0.0};
  const V2 w = min2(r_hi_x, s_hi_x) - max2(r_lo_x, s_lo_x);
  const V2 h = min2(r_hi_y, s_hi_y) - max2(r_lo_y, s_lo_y);
  return (skip | (w <= zero) | (h <= zero)) ? zero : w * h;
}

/// Areas up to this bound keep every sum ChooseSubtree forms over one node's
/// (at most 64) overlaps finite.
constexpr double kBoundedArea = std::numeric_limits<double>::max() / 128;

}  // namespace

/// ChooseSubtree's view of one inner node's children against a new box r:
/// per child, the box grown to cover r, its area enlargement and its area
/// (as Rect::united(r).area() - area() and Rect::area()), and bit masks over
/// the children. Indices past the node's count are scratch.
struct RStarTree::ChildCosts {
  std::array<double, kMaxCapacity + 1> grown_lo_x, grown_lo_y, grown_hi_x,
      grown_hi_y, enlargement, area;
  std::uint64_t all = 0;       ///< one bit per child
  std::uint64_t contains = 0;  ///< children whose box contains r
  std::uint64_t level = 0;     ///< children with enlargement == 0
  bool bounded = true;  ///< every grown area finite and <= kBoundedArea
};

RStarTree::RStarTree(std::size_t node_capacity)
    : capacity_(node_capacity),
      min_fill_(std::max<std::size_t>(2, node_capacity * 2 / 5)),
      stride_(node_capacity + 1) {
  SALARM_REQUIRE(node_capacity >= 4, "node capacity must be at least 4");
  SALARM_REQUIRE(node_capacity <= kMaxCapacity,
                 "node capacity + 1 slots must fit a 64-bit hit mask");
  root_ = alloc_node(0);
}

std::size_t RStarTree::height() const { return meta_[root_].level + 1; }

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

geo::Rect RStarTree::box(std::size_t slot) const {
  return geo::Rect({lo_x_[slot], lo_y_[slot]}, {hi_x_[slot], hi_y_[slot]});
}

void RStarTree::set_box(std::size_t slot, const geo::Rect& box) {
  lo_x_[slot] = box.lo().x;
  lo_y_[slot] = box.lo().y;
  hi_x_[slot] = box.hi().x;
  hi_y_[slot] = box.hi().y;
}

geo::Rect RStarTree::node_box(NodeId n) const {
  SALARM_ASSERT(meta_[n].count > 0, "mbr of empty node");
  // Rect::united folded over the slots, on the coordinates in place.
  const std::size_t first = first_slot(n);
  double lo_x = lo_x_[first];
  double lo_y = lo_y_[first];
  double hi_x = hi_x_[first];
  double hi_y = hi_y_[first];
  for (std::size_t s = first + 1; s < first + meta_[n].count; ++s) {
    lo_x = std::min(lo_x, lo_x_[s]);
    lo_y = std::min(lo_y, lo_y_[s]);
    hi_x = std::max(hi_x, hi_x_[s]);
    hi_y = std::max(hi_y, hi_y_[s]);
  }
  return geo::Rect({lo_x, lo_y}, {hi_x, hi_y});
}

double RStarTree::slot_distance(std::size_t slot, geo::Point p) const {
  // Rect::distance's arithmetic on the slot's coordinates in place, x and y
  // in one vector, so that the three-way maxima need no branches. Their
  // order can only change the sign of a zero, which squaring drops.
  const V2 at = {p.x, p.y};
  const V2 below = V2{lo_x_[slot], lo_y_[slot]} - at;
  const V2 above = at - V2{hi_x_[slot], hi_y_[slot]};
  V2 d = below < above ? above : below;
  d = d < V2{0.0, 0.0} ? V2{0.0, 0.0} : d;
  return std::sqrt(d[0] * d[0] + d[1] * d[1]);
}

bool RStarTree::slot_equals(std::size_t slot, const geo::Rect& r) const {
  return lo_x_[slot] == r.lo().x && lo_y_[slot] == r.lo().y &&
         hi_x_[slot] == r.hi().x && hi_y_[slot] == r.hi().y;
}

void RStarTree::unite_slot(std::size_t slot, std::size_t from) {
  // box(slot).united(box(from)), operand for operand, in place.
  lo_x_[slot] = std::min(lo_x_[slot], lo_x_[from]);
  lo_y_[slot] = std::min(lo_y_[slot], lo_y_[from]);
  hi_x_[slot] = std::max(hi_x_[slot], hi_x_[from]);
  hi_y_[slot] = std::max(hi_y_[slot], hi_y_[from]);
}

std::size_t RStarTree::parent_slot(NodeId n) const {
  const NodeId parent = meta_[n].parent;
  SALARM_ASSERT(parent != kNoNode, "the root has no parent slot");
  const std::size_t first = first_slot(parent);
  for (std::size_t s = first; s < first + meta_[parent].count; ++s) {
    if (ref_[s] == n) return s;
  }
  SALARM_ASSERT(false, "child missing from its parent's slots");
  return 0;
}

void RStarTree::set_mbr(NodeId n, const geo::Rect& mbr) {
  if (n != root_) set_box(parent_slot(n), mbr);
}

void RStarTree::append(NodeId n, const Slot& slot) {
  Meta& meta = meta_[n];
  SALARM_ASSERT(meta.count < stride_, "node slots exhausted");
  const std::size_t s = first_slot(n) + meta.count++;
  set_box(s, slot.box);
  ref_[s] = slot.ref;
  if (meta.level > 0) meta_[static_cast<NodeId>(slot.ref)].parent = n;
}

void RStarTree::remove_slot(NodeId n, std::size_t slot) {
  const std::size_t end = first_slot(n) + meta_[n].count;
  for (std::size_t s = slot; s + 1 < end; ++s) {
    lo_x_[s] = lo_x_[s + 1];
    lo_y_[s] = lo_y_[s + 1];
    hi_x_[s] = hi_x_[s + 1];
    hi_y_[s] = hi_y_[s + 1];
    ref_[s] = ref_[s + 1];
  }
  --meta_[n].count;
}

void RStarTree::append_slots(NodeId n, const std::vector<Slot>& from,
                             std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) append(n, from[i]);
}

void RStarTree::gather(NodeId n, std::vector<Slot>& out) const {
  out.clear();
  const std::size_t first = first_slot(n);
  for (std::size_t s = first; s < first + meta_[n].count; ++s) {
    out.push_back(slot_at(s));
  }
}

RStarTree::NodeId RStarTree::alloc_node(std::uint32_t level) {
  NodeId n;
  if (!free_.empty()) {
    n = free_.back();
    free_.pop_back();
  } else {
    SALARM_ASSERT(meta_.size() < kNoNode, "node arena full");
    n = static_cast<NodeId>(meta_.size());
    meta_.emplace_back();
    const std::size_t slots = meta_.size() * stride_;
    lo_x_.resize(slots);
    lo_y_.resize(slots);
    hi_x_.resize(slots);
    hi_y_.resize(slots);
    ref_.resize(slots);
  }
  meta_[n] = Meta{level, 0, kNoNode};
  return n;
}

void RStarTree::free_node(NodeId n) {
  meta_[n] = Meta{};
  free_.push_back(n);
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

void RStarTree::insert(const Entry& entry) {
  LevelSet reinserted = 0;
  insert_entry({entry.rect, entry.id}, reinserted);
  ++size_;
}

void RStarTree::insert_entry(const Slot& entry, LevelSet& reinserted) {
  const NodeId node = choose_leaf(entry.box);
  append(node, entry);
  if (node != root_) {
    const std::size_t s = parent_slot(node);
    if (meta_[node].count == 1) {
      set_box(s, entry.box);
    } else {
      unite_slot(s, first_slot(node) + meta_[node].count - 1);
    }
  }
  adjust_upward(node);
  if (meta_[node].count > capacity_) overflow_treatment(node, reinserted);
}

void RStarTree::child_costs(NodeId n, const geo::Rect& r,
                            ChildCosts& out) const {
  const std::size_t count = meta_[n].count;
  // An odd count's last pair reads one slot past it, still n's own while
  // the node is at rest; that lane's results are scratch.
  SALARM_ASSERT(count <= capacity_, "child costs of an overflowing node");
  const V2 r_lo_x = splat(r.lo().x);
  const V2 r_lo_y = splat(r.lo().y);
  const V2 r_hi_x = splat(r.hi().x);
  const V2 r_hi_y = splat(r.hi().y);
  const V2 zero = {0.0, 0.0};
  const V2 bound = splat(kBoundedArea);
  std::uint64_t bounded = 0;
  out.all = (std::uint64_t{1} << count) - 1;
  out.contains = 0;
  out.level = 0;
  const std::size_t first = first_slot(n);
  for (std::size_t i = 0; i < count; i += 2) {
    const std::size_t s = first + i;
    const V2 lo_x = load2(lo_x_.data() + s);
    const V2 lo_y = load2(lo_y_.data() + s);
    const V2 hi_x = load2(hi_x_.data() + s);
    const V2 hi_y = load2(hi_y_.data() + s);
    // Rect::united(r) with the child as `this`, then both areas.
    const V2 g_lo_x = min2(lo_x, r_lo_x);
    const V2 g_lo_y = min2(lo_y, r_lo_y);
    const V2 g_hi_x = max2(hi_x, r_hi_x);
    const V2 g_hi_y = max2(hi_y, r_hi_y);
    const V2 area = (hi_x - lo_x) * (hi_y - lo_y);
    const V2 grown_area = (g_hi_x - g_lo_x) * (g_hi_y - g_lo_y);
    const V2 enlargement = grown_area - area;
    store2(out.grown_lo_x.data() + i, g_lo_x);
    store2(out.grown_lo_y.data() + i, g_lo_y);
    store2(out.grown_hi_x.data() + i, g_hi_x);
    store2(out.grown_hi_y.data() + i, g_hi_y);
    store2(out.enlargement.data() + i, enlargement);
    store2(out.area.data() + i, area);
    // Rect::contains(r).
    out.contains |= mask2((r_lo_x >= lo_x) & (r_hi_x <= hi_x) &
                              (r_lo_y >= lo_y) & (r_hi_y <= hi_y),
                          i);
    out.level |= mask2(enlargement == zero, i);
    bounded |= mask2(grown_area <= bound, i);
  }
  out.contains &= out.all;
  out.level &= out.all;
  out.bounded = (bounded & out.all) == out.all;
}

void RStarTree::overlap_enlargements(NodeId n, const ChildCosts& costs,
                                     std::uint64_t children,
                                     double* out) const {
  const std::size_t count = meta_[n].count;
  const std::size_t first = first_slot(n);
  while (children != 0) {
    // The pair of children holding the lowest bit left: lanes i and i + 1.
    const std::size_t i =
        static_cast<std::size_t>(std::countr_zero(children)) & ~std::size_t{1};
    children &= ~(std::uint64_t{3} << i);
    const std::size_t s = first + i;
    const V2 lo_x = load2(lo_x_.data() + s);
    const V2 lo_y = load2(lo_y_.data() + s);
    const V2 hi_x = load2(hi_x_.data() + s);
    const V2 hi_y = load2(hi_y_.data() + s);
    const V2 g_lo_x = load2(costs.grown_lo_x.data() + i);
    const V2 g_lo_y = load2(costs.grown_lo_y.data() + i);
    const V2 g_hi_x = load2(costs.grown_hi_x.data() + i);
    const V2 g_hi_y = load2(costs.grown_hi_y.data() + i);
    const auto lane = static_cast<std::int64_t>(i);
    const V2i self = {lane, lane + 1};
    // Each lane's sums over the siblings j in ascending order, as scalar
    // code forms them: the j == i term adds +0, which leaves a sum of
    // non-negative terms unchanged.
    V2 before = {0.0, 0.0};
    V2 after = {0.0, 0.0};
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t t = first + j;
      const V2 t_lo_x = splat(lo_x_[t]);
      const V2 t_lo_y = splat(lo_y_[t]);
      const V2 t_hi_x = splat(hi_x_[t]);
      const V2 t_hi_y = splat(hi_y_[t]);
      const auto other = static_cast<std::int64_t>(j);
      const V2i skip = self == V2i{other, other};
      before += overlap2(lo_x, lo_y, hi_x, hi_y, t_lo_x, t_lo_y, t_hi_x,
                         t_hi_y, skip);
      after += overlap2(g_lo_x, g_lo_y, g_hi_x, g_hi_y, t_lo_x, t_lo_y,
                        t_hi_x, t_hi_y, skip);
    }
    store2(out + i, after - before);
  }
}

RStarTree::NodeId RStarTree::choose_leaf(const geo::Rect& rect) {
  NodeId node = root_;
  ++node_accesses_;
  ChildCosts costs;
  std::array<double, kMaxCapacity + 1> overlap;
  while (meta_[node].level > 0) {
    child_costs(node, rect, costs);
    // Each candidate's (primary, secondary, tertiary) cost, compared in
    // that order; the first of equal candidates wins.
    std::uint64_t candidates = costs.all;
    const double* primary = costs.enlargement.data();
    const double* secondary = costs.area.data();
    if (meta_[node].level == 1) {
      // Minimum overlap enlargement among siblings, then area enlargement,
      // then area. A child that contains rect costs (+0, +0, area): its
      // grown box is its box. Every other child costs at least that much
      // (grown ⊇ box term by term, and rounding is monotone), and more
      // unless its area enlargement is exactly 0 (a degenerate box such as
      // a point grant). So only those can tie with a containing child, and
      // only they need their overlap sums. The bound keeps every cost
      // finite, so the costs are totally ordered.
      if (costs.contains != 0 && costs.bounded) {
        candidates = costs.contains | costs.level;
        for (std::uint64_t c = costs.contains; c != 0; c &= c - 1) {
          overlap[static_cast<std::size_t>(std::countr_zero(c))] = 0.0;
        }
        overlap_enlargements(node, costs, candidates & ~costs.contains,
                             overlap.data());
      } else {
        overlap_enlargements(node, costs, candidates, overlap.data());
      }
      primary = overlap.data();
      secondary = costs.enlargement.data();
    }
    const double* tertiary = costs.area.data();
    // The lowest candidate slot stands until a candidate beats it, so a
    // full tie goes to it; so do all-NaN costs, which overflowing areas
    // give (inf - inf).
    auto best = static_cast<std::size_t>(std::countr_zero(candidates));
    double best_primary = kInf;
    double best_secondary = kInf;
    double best_tertiary = kInf;
    for (; candidates != 0; candidates &= candidates - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(candidates));
      if (primary[i] < best_primary ||
          (primary[i] == best_primary && secondary[i] < best_secondary) ||
          (primary[i] == best_primary && secondary[i] == best_secondary &&
           tertiary[i] < best_tertiary)) {
        best = i;
        best_primary = primary[i];
        best_secondary = secondary[i];
        best_tertiary = tertiary[i];
      }
    }
    SALARM_ASSERT(best < meta_[node].count, "internal node without children");
    node = static_cast<NodeId>(ref_[first_slot(node) + best]);
    ++node_accesses_;
  }
  return node;
}

void RStarTree::adjust_upward(NodeId node) {
  if (node == root_) return;
  std::size_t grown = parent_slot(node);
  for (NodeId p = meta_[node].parent; p != root_; p = meta_[p].parent) {
    const std::size_t s = parent_slot(p);
    unite_slot(s, grown);
    grown = s;
  }
}

void RStarTree::recompute_upward(NodeId node) {
  if (node == root_) return;
  for (NodeId p = meta_[node].parent; p != root_; p = meta_[p].parent) {
    set_box(parent_slot(p), node_box(p));
  }
}

void RStarTree::overflow_treatment(NodeId node, LevelSet& reinserted) {
  const std::uint32_t level = meta_[node].level;
  SALARM_ASSERT(level < 64, "level outside the reinsertion set");
  const LevelSet bit = LevelSet{1} << level;
  if (node != root_ && (reinserted & bit) == 0) {
    reinserted |= bit;
    reinsert(node, reinserted);
  } else {
    split(node);
  }
}

void RStarTree::reinsert(NodeId node, LevelSet& reinserted) {
  // Orphans re-attach at this node's level, whose bit is now set, so their
  // overflows split: a reinsertion never nests and one scratch suffices.
  SALARM_ASSERT(reinsert_orphans_.empty(), "nested reinsertion");
  const geo::Point center = box(parent_slot(node)).center();
  const std::size_t keep = meta_[node].count -
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::floor(kReinsertFraction *
                                              static_cast<double>(capacity_))));
  std::vector<Slot>& items = reinsert_orphans_;
  gather(node, items);
  insertion_sort(items, [&](const Slot& a, const Slot& b) {
    return geo::squared_distance(a.box.center(), center) <
           geo::squared_distance(b.box.center(), center);
  });
  meta_[node].count = 0;
  append_slots(node, items, 0, keep);
  set_mbr(node, node_box(node));
  recompute_upward(node);
  if (meta_[node].level == 0) {
    for (std::size_t i = keep; i < items.size(); ++i) {
      insert_entry(items[i], reinserted);
    }
  } else {
    for (std::size_t i = keep; i < items.size(); ++i) {
      // Re-attach the whole subtree at its original level, descending by
      // minimum area enlargement.
      const Slot orphan = items[i];
      const std::uint32_t level =
          meta_[static_cast<NodeId>(orphan.ref)].level;
      NodeId host = root_;
      ChildCosts costs;
      while (meta_[host].level > level + 1) {
        child_costs(host, orphan.box, costs);
        std::size_t best = 0;
        double best_enl = kInf;
        double best_area = kInf;
        for (std::size_t i = 0; i < meta_[host].count; ++i) {
          const double enl = costs.enlargement[i];
          const double area = costs.area[i];
          if (enl < best_enl || (enl == best_enl && area < best_area)) {
            best = i;
            best_enl = enl;
            best_area = area;
          }
        }
        host = static_cast<NodeId>(ref_[first_slot(host) + best]);
        ++node_accesses_;
      }
      append(host, orphan);
      set_mbr(host, node_box(host));
      adjust_upward(host);
      if (meta_[host].count > capacity_) overflow_treatment(host, reinserted);
    }
  }
  items.clear();
}

namespace {

/// One candidate split distribution over a sorted sequence of rectangles.
struct SplitChoice {
  std::size_t axis = 0;       // 0 = x, 1 = y
  bool by_upper = false;      // sort key: lower or upper edge
  std::size_t split_at = 0;   // first group size
};

template <typename Item>
geo::Rect mbr_of(const std::vector<Item>& items, std::size_t from,
                 std::size_t to) {
  geo::Rect box = items[from].box;
  for (std::size_t i = from + 1; i < to; ++i) box = box.united(items[i].box);
  return box;
}

/// Sorts the items by one edge of their boxes: the lower or upper x (axis
/// 0) or y (axis 1) coordinate.
template <typename Item>
void sort_by_edge(std::vector<Item>& items, std::size_t axis, bool by_upper) {
  insertion_sort(items, [&](const Item& a, const Item& b) {
    const geo::Point ka = by_upper ? a.box.hi() : a.box.lo();
    const geo::Point kb = by_upper ? b.box.hi() : b.box.lo();
    return axis == 0 ? ka.x < kb.x : ka.y < kb.y;
  });
}

/// Implements the R* ChooseSplitAxis / ChooseSplitIndex pair over a node's
/// items. Sorts `items` in place according to the winning axis/key and
/// returns the winning first-group size.
template <typename Item>
std::size_t rstar_split_position(std::vector<Item>& items,
                                 std::size_t min_fill) {
  const std::size_t n = items.size();
  const std::size_t distributions = n - 2 * min_fill + 1;
  SALARM_ASSERT(n >= 2 * min_fill, "split on underfull node");

  double best_margin = kInf;
  SplitChoice best_axis_choice;

  for (std::size_t axis = 0; axis < 2; ++axis) {
    for (const bool by_upper : {false, true}) {
      sort_by_edge(items, axis, by_upper);
      double margin_sum = 0.0;
      for (std::size_t d = 0; d < distributions; ++d) {
        const std::size_t first = min_fill + d;
        margin_sum += mbr_of(items, 0, first).margin() +
                      mbr_of(items, first, n).margin();
      }
      if (margin_sum < best_margin) {
        best_margin = margin_sum;
        best_axis_choice = {axis, by_upper, 0};
      }
    }
  }

  // Re-sort by the winning axis/key, then pick the distribution with
  // minimum overlap (ties: minimum total area).
  sort_by_edge(items, best_axis_choice.axis, best_axis_choice.by_upper);
  double best_overlap = kInf;
  double best_area = kInf;
  std::size_t best_split = min_fill;
  for (std::size_t d = 0; d < distributions; ++d) {
    const std::size_t first = min_fill + d;
    const geo::Rect g1 = mbr_of(items, 0, first);
    const geo::Rect g2 = mbr_of(items, first, n);
    const double overlap = geo::overlap_area(g1, g2);
    const double area = g1.area() + g2.area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_split = first;
    }
  }
  return best_split;
}

}  // namespace

void RStarTree::split(NodeId node) {
  std::vector<Slot>& items = split_items_;
  gather(node, items);
  const std::size_t at = rstar_split_position(items, min_fill_);
  const NodeId sibling = alloc_node(meta_[node].level);
  meta_[node].count = 0;
  append_slots(node, items, 0, at);
  append_slots(sibling, items, at, items.size());
  const geo::Rect node_mbr = node_box(node);
  const geo::Rect sibling_mbr = node_box(sibling);

  if (node == root_) {
    root_ = alloc_node(meta_[node].level + 1);
    append(root_, {node_mbr, node});
    append(root_, {sibling_mbr, sibling});
    return;
  }

  const NodeId parent = meta_[node].parent;
  set_box(parent_slot(node), node_mbr);
  append(parent, {sibling_mbr, sibling});
  set_mbr(parent, node_box(parent));
  adjust_upward(parent);
  if (meta_[parent].count > capacity_) {
    LevelSet split_only = kSplitOnly;
    overflow_treatment(parent, split_only);
  }
}

// ---------------------------------------------------------------------------
// Bulk loading (Sort-Tile-Recursive)
// ---------------------------------------------------------------------------

namespace {

/// Balanced partition sizes: k groups whose sizes differ by at most one.
/// With k = ceil(n / capacity) every group holds at least floor(n/k) >=
/// capacity/2 entries (for k >= 2), satisfying the 40% minimum fill.
std::vector<std::size_t> balanced_groups(std::size_t n,
                                         std::size_t capacity) {
  const std::size_t k = (n + capacity - 1) / capacity;
  std::vector<std::size_t> sizes(k, n / k);
  for (std::size_t i = 0; i < n % k; ++i) ++sizes[i];
  return sizes;
}

/// The vertical slabs STR cuts a level of `items` into: as many as the
/// square root of the level's node count, balanced.
std::vector<std::size_t> str_slabs(std::size_t items, std::size_t capacity) {
  const auto slabs = static_cast<std::size_t>(std::ceil(
      std::sqrt(static_cast<double>((items + capacity - 1) / capacity))));
  return balanced_groups(items, (items + slabs - 1) / slabs);
}

/// The number of nodes STR builds over `items` entries, all levels: each
/// slab cuts into ceil(slab / capacity) nodes (the tail balancing turns an
/// underfull last node and a full one into two balanced ones).
std::size_t str_node_count(std::size_t items, std::size_t capacity) {
  std::size_t total = 0;
  for (std::size_t level = items;;) {
    std::size_t nodes = 0;
    for (const std::size_t slab : str_slabs(level, capacity)) {
      nodes += (slab + capacity - 1) / capacity;
    }
    total += nodes;
    if (nodes == 1) return total;
    level = nodes;
  }
}

}  // namespace

RStarTree RStarTree::bulk_load(std::vector<Entry> entries,
                               std::size_t node_capacity) {
  RStarTree tree(node_capacity);
  if (entries.empty()) return tree;
  tree.size_ = entries.size();
  tree.free_node(tree.root_);  // the first leaf takes its place
  // Size the arena once, exactly: growth by doubling would leave up to
  // half of it unused for the life of the tree.
  const std::size_t nodes = str_node_count(entries.size(), node_capacity);
  tree.meta_.reserve(nodes);
  for (std::vector<double>* column :
       {&tree.lo_x_, &tree.lo_y_, &tree.hi_x_, &tree.hi_y_}) {
    column->reserve(nodes * tree.stride_);
  }
  tree.ref_.reserve(nodes * tree.stride_);

  // A level is its items' slots: the entries, then each level's nodes as
  // (MBR, node id). Every level is tiled the same way.
  std::vector<Slot> level;
  level.reserve(entries.size());
  for (const Entry& e : entries) level.push_back({e.rect, e.id});
  std::vector<Entry>().swap(entries);  // only the slots are read from here
  std::vector<Slot> parents;
  std::uint32_t height = 0;
  do {
    std::stable_sort(level.begin(), level.end(),
                     [](const Slot& a, const Slot& b) {
                       return a.box.center().x < b.box.center().x;
                     });
    parents.clear();
    std::size_t cursor = 0;
    for (const std::size_t slab_size :
         str_slabs(level.size(), node_capacity)) {
      const std::size_t slab_end = cursor + slab_size;
      std::stable_sort(level.begin() + static_cast<std::ptrdiff_t>(cursor),
                       level.begin() + static_cast<std::ptrdiff_t>(slab_end),
                       [](const Slot& a, const Slot& b) {
                         return a.box.center().y < b.box.center().y;
                       });
      for (std::size_t offset = cursor; offset < slab_end;) {
        // Balance the tail: if what would remain is underfull, split the
        // remainder of the slab evenly instead.
        const std::size_t remaining = slab_end - offset;
        std::size_t count = std::min(node_capacity, remaining);
        if (remaining > node_capacity &&
            remaining - count < tree.min_fill_) {
          count = remaining / 2;
        }
        const NodeId node = tree.alloc_node(height);
        tree.append_slots(node, level, offset, offset + count);
        parents.push_back({tree.node_box(node), node});
        offset += count;
      }
      cursor = slab_end;
    }
    std::swap(level, parents);
    ++height;
  } while (level.size() > 1);

  SALARM_ASSERT(tree.meta_.size() == nodes, "STR node count mismatch");
  tree.root_ = static_cast<NodeId>(level.front().ref);
  return tree;
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

bool RStarTree::erase(const Entry& entry) {
  const NodeId leaf = find_leaf(root_, entry);
  if (leaf == kNoNode) return false;
  const std::size_t first = first_slot(leaf);
  const std::size_t end = first + meta_[leaf].count;
  std::size_t s = first;
  while (s < end && !(ref_[s] == entry.id && slot_equals(s, entry.rect))) ++s;
  SALARM_ASSERT(s < end, "find_leaf returned wrong leaf");
  remove_slot(leaf, s);
  --size_;
  condense(leaf);
  return true;
}

RStarTree::NodeId RStarTree::find_leaf(NodeId node,
                                       const Entry& entry) const {
  ++node_accesses_;
  const std::size_t first = first_slot(node);
  const std::size_t end = first + meta_[node].count;
  if (meta_[node].level == 0) {
    for (std::size_t s = first; s < end; ++s) {
      if (ref_[s] == entry.id && slot_equals(s, entry.rect)) return node;
    }
    return kNoNode;
  }
  for (std::size_t s = first; s < end; ++s) {
    // Rect::contains(entry.rect) on the slot in place.
    if (entry.rect.lo().x >= lo_x_[s] && entry.rect.hi().x <= hi_x_[s] &&
        entry.rect.lo().y >= lo_y_[s] && entry.rect.hi().y <= hi_y_[s]) {
      const NodeId found = find_leaf(static_cast<NodeId>(ref_[s]), entry);
      if (found != kNoNode) return found;
    }
  }
  return kNoNode;
}

void RStarTree::condense(NodeId leaf) {
  orphan_entries_.clear();
  orphan_nodes_.clear();

  if (meta_[leaf].count > 0) set_mbr(leaf, node_box(leaf));

  NodeId node = leaf;
  while (node != root_) {
    const NodeId parent = meta_[node].parent;
    if (meta_[node].count < min_fill_) {
      // Detach the underfull node and queue its contents for reinsertion.
      remove_slot(parent, parent_slot(node));
      std::vector<Slot>& orphans =
          meta_[node].level == 0 ? orphan_entries_ : orphan_nodes_;
      const std::size_t first = first_slot(node);
      for (std::size_t s = first; s < first + meta_[node].count; ++s) {
        orphans.push_back(slot_at(s));
      }
      free_node(node);
    }
    if (meta_[parent].count > 0) set_mbr(parent, node_box(parent));
    node = parent;
  }

  // Shrink the root while it is an internal node with a single child. The
  // root kept at least one child: only the child on the path was detached.
  SALARM_ASSERT(meta_[root_].level == 0 || meta_[root_].count > 0,
                "condense emptied an internal root");
  while (meta_[root_].level > 0 && meta_[root_].count == 1) {
    const auto only = static_cast<NodeId>(ref_[first_slot(root_)]);
    free_node(root_);
    root_ = only;
    meta_[root_].parent = kNoNode;
  }

  // Reinsert orphaned subtrees (level by level, deepest first keeps the
  // leaf-depth invariant) and then leaf entries. A subtree's level is below
  // the detached node's, and the root shrank past no undetached node, so
  // every orphan still fits under the root.
  insertion_sort(orphan_nodes_, [this](const Slot& a, const Slot& b) {
    return meta_[static_cast<NodeId>(a.ref)].level >
           meta_[static_cast<NodeId>(b.ref)].level;
  });
  for (const Slot& orphan : orphan_nodes_) {
    const std::uint32_t level = meta_[static_cast<NodeId>(orphan.ref)].level;
    SALARM_ASSERT(level + 1 <= meta_[root_].level, "orphan above the root");
    NodeId host = root_;
    ChildCosts costs;
    while (meta_[host].level > level + 1) {
      child_costs(host, orphan.box, costs);
      std::size_t best = 0;
      double best_enl = kInf;
      for (std::size_t i = 0; i < meta_[host].count; ++i) {
        if (costs.enlargement[i] < best_enl) {
          best_enl = costs.enlargement[i];
          best = i;
        }
      }
      host = static_cast<NodeId>(ref_[first_slot(host) + best]);
      ++node_accesses_;
    }
    append(host, orphan);
    set_mbr(host, node_box(host));
    adjust_upward(host);
    if (meta_[host].count > capacity_) {
      LevelSet split_only = kSplitOnly;
      overflow_treatment(host, split_only);
    }
  }
  for (const Slot& e : orphan_entries_) {
    LevelSet reinserted = 0;
    insert_entry(e, reinserted);
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

template <class PairHits>
std::uint64_t RStarTree::descend(const PairHits& pair_hits,
                                 EntryVisitor visitor) const {
  if (size_ == 0) return 0;
  SALARM_ASSERT(height() * capacity_ <= kTraversalStack,
                "tree too tall for the fixed traversal stack");
  std::array<NodeId, kTraversalStack> stack;  // only [0, top) is read
  std::size_t top = 0;
  stack[top++] = root_;
  std::uint64_t accesses = 0;
  while (top > 0) {
    const NodeId node = stack[--top];
    ++accesses;
    const std::size_t first = first_slot(node);
    const std::size_t count = meta_[node].count;
    // The hit mask, two slots per step and without short circuits. At rest
    // a node holds at most capacity < stride slots, so an odd count's last
    // pair still reads this node's slots; the bits past count are dropped.
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < count; i += 2) {
      const std::size_t s = first + i;
      const V2i hit =
          pair_hits(load2(lo_x_.data() + s), load2(lo_y_.data() + s),
                    load2(hi_x_.data() + s), load2(hi_y_.data() + s));
      mask |= ((static_cast<std::uint64_t>(hit[0]) & 1u) |
               (static_cast<std::uint64_t>(hit[1]) & 2u))
              << i;
    }
    mask &= (std::uint64_t{1} << count) - 1;
    // Set bits in ascending slot order: a leaf reports its hits in slot
    // order, an inner node pushes its hit children so the LIFO pops them
    // last slot first.
    if (meta_[node].level == 0) {
      for (; mask != 0; mask &= mask - 1) {
        const std::size_t s = first + static_cast<std::size_t>(
                                          std::countr_zero(mask));
        if (!visitor(Entry{box(s), ref_[s]})) return accesses;
      }
    } else {
      for (; mask != 0; mask &= mask - 1) {
        stack[top++] = static_cast<NodeId>(
            ref_[first + static_cast<std::size_t>(std::countr_zero(mask))]);
      }
    }
  }
  return accesses;
}

void RStarTree::visit(const geo::Rect& window, EntryVisitor visitor) const {
  // Closed intersection, as Rect::intersects.
  const V2 lo_x = {window.lo().x, window.lo().x};
  const V2 lo_y = {window.lo().y, window.lo().y};
  const V2 hi_x = {window.hi().x, window.hi().x};
  const V2 hi_y = {window.hi().y, window.hi().y};
  node_accesses_ += descend(
      [&](V2 slot_lo_x, V2 slot_lo_y, V2 slot_hi_x, V2 slot_hi_y) {
        return (slot_lo_x <= hi_x) & (lo_x <= slot_hi_x) &
               (slot_lo_y <= hi_y) & (lo_y <= slot_hi_y);
      },
      visitor);
}

std::uint64_t RStarTree::probe(geo::Point p, EntryVisitor visitor) const {
  // Closed containment, as Rect::contains(Point).
  const V2 x = {p.x, p.x};
  const V2 y = {p.y, p.y};
  return descend(
      [&](V2 lo_x, V2 lo_y, V2 hi_x, V2 hi_y) {
        return (lo_x <= x) & (x <= hi_x) & (lo_y <= y) & (y <= hi_y);
      },
      visitor);
}

double RStarTree::nearest_distance(geo::Point p, IdFilter accept) const {
  if (size_ == 0) return kInf;
  // Non-finite positions give NaN or infinite keys: leave them to the heap.
  if (std::isfinite(p.x) && std::isfinite(p.y)) {
    double d_star = kInf;
    bound_nearest(root_, p, accept, d_star);
    Census found;
    (void)census(root_, p, accept, d_star, found);
    if (found.ties <= 1 && found.ties_on_path) {
      node_accesses_ += found.nodes;
      return d_star;
    }
  }
  ++nearest_fallbacks_;
  return nearest_distance_best_first(p, accept);
}

void RStarTree::bound_nearest(NodeId node, geo::Point p, IdFilter accept,
                              double& best) const {
  const std::size_t first = first_slot(node);
  const std::size_t count = meta_[node].count;
  if (meta_[node].level == 0) {
    for (std::size_t s = first; s < first + count; ++s) {
      // The key test first: most entries are farther than the best so far,
      // and the filter is the dearer test.
      const double key = slot_distance(s, p);
      if (key < best && accept(ref_[s])) best = key;
    }
    return;
  }
  std::array<double, kMaxCapacity + 1> keys;  // only [0, count) is read
  for (std::size_t i = 0; i < count; ++i) keys[i] = slot_distance(first + i, p);
  // Children in ascending key order; once the nearest one left is farther
  // than the best entry so far, so are the rest.
  for (std::uint64_t left = (std::uint64_t{1} << count) - 1; left != 0;) {
    std::size_t nearest = static_cast<std::size_t>(std::countr_zero(left));
    for (std::uint64_t rest = left & (left - 1); rest != 0;
         rest &= rest - 1) {
      const auto i = static_cast<std::size_t>(std::countr_zero(rest));
      if (keys[i] < keys[nearest]) nearest = i;
    }
    if (keys[nearest] > best) return;
    left &= ~(std::uint64_t{1} << nearest);
    bound_nearest(static_cast<NodeId>(ref_[first + nearest]), p, accept,
                  best);
  }
}

bool RStarTree::census(NodeId node, geo::Point p, IdFilter accept,
                       double d_star, Census& out) const {
  ++out.nodes;
  const std::size_t first = first_slot(node);
  const std::size_t end = first + meta_[node].count;
  bool holds = false;
  if (meta_[node].level == 0) {
    for (std::size_t s = first; s < end; ++s) {
      if (slot_distance(s, p) == d_star && accept(ref_[s])) {
        ++out.ties;
        holds = true;
      }
    }
    return holds;
  }
  for (std::size_t s = first; s < end; ++s) {
    const double key = slot_distance(s, p);
    if (key > d_star) continue;
    const bool child_holds =
        census(static_cast<NodeId>(ref_[s]), p, accept, d_star, out);
    // A node with key d* off the answer's path may or may not pop before
    // the answer, by the heap's tie order.
    if (key == d_star && !child_holds) out.ties_on_path = false;
    holds = holds || child_holds;
  }
  return holds;
}

double RStarTree::nearest_distance_best_first(geo::Point p,
                                              IdFilter accept) const {
  if (size_ == 0) return kInf;
  struct QueueItem {
    double dist;
    NodeId node;  // kNoNode when this is an entry
    bool operator>(const QueueItem& other) const { return dist > other.dist; }
  };
  // A min-heap under the exact push_heap/pop_heap discipline of
  // std::priority_queue<..., std::greater<>>, so ties pop in the same order
  // and node accesses match; reused so a warm thread allocates nothing.
  thread_local std::vector<QueueItem> heap;
  constexpr std::greater<QueueItem> later;
  const auto push = [&](const QueueItem& item) {
    heap.push_back(item);
    std::push_heap(heap.begin(), heap.end(), later);
  };
  heap.clear();
  // The root is alone in the heap, so it pops first whatever its key.
  push({0.0, root_});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const QueueItem item = heap.back();
    heap.pop_back();
    // The first entry popped is the nearest accepted one.
    if (item.node == kNoNode) return item.dist;
    ++node_accesses_;
    const std::size_t first = first_slot(item.node);
    const std::size_t end = first + meta_[item.node].count;
    if (meta_[item.node].level == 0) {
      for (std::size_t s = first; s < end; ++s) {
        if (accept(ref_[s])) push({slot_distance(s, p), kNoNode});
      }
    } else {
      for (std::size_t s = first; s < end; ++s) {
        push({slot_distance(s, p), static_cast<NodeId>(ref_[s])});
      }
    }
  }
  return kInf;
}

// ---------------------------------------------------------------------------
// Invariant checking (test hook)
// ---------------------------------------------------------------------------

void RStarTree::check_invariants() const {
  SALARM_ASSERT(root_ < meta_.size(), "root outside the arena");
  SALARM_ASSERT(meta_[root_].parent == kNoNode, "root with a parent");
  SALARM_ASSERT(lo_x_.size() == meta_.size() * stride_ &&
                    lo_y_.size() == lo_x_.size() &&
                    hi_x_.size() == lo_x_.size() &&
                    hi_y_.size() == lo_x_.size() &&
                    ref_.size() == lo_x_.size(),
                "slot arrays out of step with the nodes");
  std::size_t leaf_entries = 0;
  std::vector<bool> live(meta_.size(), false);
  std::size_t live_count = 0;

  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    SALARM_ASSERT(!live[node], "node reachable twice");
    live[node] = true;
    ++live_count;
    const Meta& meta = meta_[node];
    if (node != root_) {
      SALARM_ASSERT(meta.count >= min_fill_, "underfull node");
    }
    SALARM_ASSERT(meta.count <= capacity_, "overfull node");
    if (meta.level == 0) {
      leaf_entries += meta.count;
      continue;
    }
    SALARM_ASSERT(meta.count > 0, "empty internal node");
    const std::size_t first = first_slot(node);
    for (std::size_t s = first; s < first + meta.count; ++s) {
      SALARM_ASSERT(ref_[s] < meta_.size(), "child outside the arena");
      const auto child = static_cast<NodeId>(ref_[s]);
      SALARM_ASSERT(meta_[child].parent == node, "broken parent index");
      SALARM_ASSERT(meta_[child].level + 1 == meta.level, "level mismatch");
      if (meta_[child].count > 0) {
        SALARM_ASSERT(box(s) == node_box(child), "stale MBR");
      }
      stack.push_back(child);
    }
  }
  SALARM_ASSERT(leaf_entries == size_, "size counter out of sync");

  for (const NodeId n : free_) {
    SALARM_ASSERT(n < meta_.size(), "free node outside the arena");
    SALARM_ASSERT(!live[n], "free node in the tree or listed twice");
    live[n] = true;
  }
  SALARM_ASSERT(live_count + free_.size() == meta_.size(),
                "node neither live nor free");
}

}  // namespace salarm::index
