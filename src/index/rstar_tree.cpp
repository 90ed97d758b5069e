#include "index/rstar_tree.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>

#include "common/error.h"

namespace salarm::index {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fraction of a node reinserted on first overflow (R* paper: p = 30%).
constexpr double kReinsertFraction = 0.3;

double enlargement(const geo::Rect& mbr, const geo::Rect& add) {
  return mbr.united(add).area() - mbr.area();
}

}  // namespace

struct RStarTree::Node {
  explicit Node(std::size_t lvl) : level(lvl) {}

  bool leaf() const { return level == 0; }
  std::size_t count() const {
    return leaf() ? entries.size() : children.size();
  }

  geo::Rect compute_mbr() const {
    SALARM_ASSERT(count() > 0, "mbr of empty node");
    geo::Rect box = leaf() ? entries.front().rect : children.front()->mbr;
    if (leaf()) {
      for (const Entry& e : entries) box = box.united(e.rect);
    } else {
      for (const auto& c : children) box = box.united(c->mbr);
    }
    return box;
  }

  std::size_t level;  ///< 0 for leaves, parent level = child level + 1.
  geo::Rect mbr;
  Node* parent = nullptr;
  std::vector<Entry> entries;                   ///< leaf payload
  std::vector<std::unique_ptr<Node>> children;  ///< internal payload
};

RStarTree::RStarTree(std::size_t node_capacity)
    : root_(std::make_unique<Node>(0)), capacity_(node_capacity),
      min_fill_(std::max<std::size_t>(2, node_capacity * 2 / 5)) {
  SALARM_REQUIRE(node_capacity >= 4, "node capacity must be at least 4");
}

RStarTree::~RStarTree() = default;
RStarTree::RStarTree(RStarTree&&) noexcept = default;
RStarTree& RStarTree::operator=(RStarTree&&) noexcept = default;

std::size_t RStarTree::height() const { return root_->level + 1; }

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

void RStarTree::insert(const Entry& entry) {
  std::vector<bool> reinserted(root_->level + 2, false);
  insert_entry(entry, 0, reinserted);
  ++size_;
}

void RStarTree::insert_entry(const Entry& entry, std::size_t target_level,
                             std::vector<bool>& reinserted) {
  Node* node = choose_subtree(entry, target_level);
  SALARM_ASSERT(node->leaf(), "entry insertion must land in a leaf");
  node->entries.push_back(entry);
  node->mbr = node->count() == 1 ? entry.rect : node->mbr.united(entry.rect);
  adjust_upward(node);
  if (node->count() > capacity_) overflow_treatment(node, reinserted);
}

RStarTree::Node* RStarTree::choose_subtree(const Entry& entry,
                                           std::size_t target_level) {
  Node* node = root_.get();
  ++node_accesses_;
  while (node->level > target_level) {
    const bool children_are_leaves = node->level == 1;
    Node* best = nullptr;
    double best_primary = kInf;   // overlap (leaf level) / area enlargement
    double best_secondary = kInf; // area enlargement / area
    double best_area = kInf;
    for (const auto& child : node->children) {
      const double area_enl = enlargement(child->mbr, entry.rect);
      const double area = child->mbr.area();
      double primary;
      double secondary;
      if (children_are_leaves) {
        // Minimum overlap enlargement among siblings.
        const geo::Rect grown = child->mbr.united(entry.rect);
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (const auto& other : node->children) {
          if (other.get() == child.get()) continue;
          overlap_before += geo::overlap_area(child->mbr, other->mbr);
          overlap_after += geo::overlap_area(grown, other->mbr);
        }
        primary = overlap_after - overlap_before;
        secondary = area_enl;
      } else {
        primary = area_enl;
        secondary = area;
      }
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           area < best_area)) {
        best = child.get();
        best_primary = primary;
        best_secondary = secondary;
        best_area = area;
      }
    }
    SALARM_ASSERT(best != nullptr, "internal node without children");
    node = best;
    ++node_accesses_;
  }
  return node;
}

void RStarTree::adjust_upward(Node* node) {
  for (Node* p = node->parent; p != nullptr; p = p->parent) {
    p->mbr = p->mbr.united(node->mbr);
    node = p;
  }
}

void RStarTree::recompute_upward(Node* node) {
  for (Node* p = node->parent; p != nullptr; p = p->parent) {
    p->mbr = p->compute_mbr();
  }
}

void RStarTree::overflow_treatment(Node* node,
                                   std::vector<bool>& reinserted) {
  if (node->level >= reinserted.size()) reinserted.resize(node->level + 1);
  if (node != root_.get() && !reinserted[node->level]) {
    reinserted[node->level] = true;
    reinsert(node, reinserted);
  } else {
    split(node);
  }
}

void RStarTree::reinsert(Node* node, std::vector<bool>& reinserted) {
  const geo::Point center = node->mbr.center();
  const std::size_t keep = node->count() -
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::floor(kReinsertFraction *
                                              static_cast<double>(capacity_))));
  if (node->leaf()) {
    std::stable_sort(node->entries.begin(), node->entries.end(),
                     [&](const Entry& a, const Entry& b) {
                       return geo::squared_distance(a.rect.center(), center) <
                              geo::squared_distance(b.rect.center(), center);
                     });
    std::vector<Entry> orphans(node->entries.begin() +
                                   static_cast<std::ptrdiff_t>(keep),
                               node->entries.end());
    node->entries.resize(keep);
    node->mbr = node->compute_mbr();
    recompute_upward(node);
    for (const Entry& e : orphans) insert_entry(e, 0, reinserted);
  } else {
    std::stable_sort(node->children.begin(), node->children.end(),
                     [&](const auto& a, const auto& b) {
                       return geo::squared_distance(a->mbr.center(), center) <
                              geo::squared_distance(b->mbr.center(), center);
                     });
    std::vector<std::unique_ptr<Node>> orphans;
    for (std::size_t i = keep; i < node->children.size(); ++i) {
      orphans.push_back(std::move(node->children[i]));
    }
    node->children.resize(keep);
    node->mbr = node->compute_mbr();
    recompute_upward(node);
    for (auto& orphan : orphans) {
      // Re-attach the whole subtree at its original level, descending by
      // minimum area enlargement.
      Node* host = root_.get();
      while (host->level > orphan->level + 1) {
        Node* best = nullptr;
        double best_enl = kInf;
        double best_area = kInf;
        for (const auto& child : host->children) {
          const double enl = enlargement(child->mbr, orphan->mbr);
          const double area = child->mbr.area();
          if (enl < best_enl || (enl == best_enl && area < best_area)) {
            best = child.get();
            best_enl = enl;
            best_area = area;
          }
        }
        host = best;
        ++node_accesses_;
      }
      orphan->parent = host;
      host->children.push_back(std::move(orphan));
      host->mbr = host->compute_mbr();
      adjust_upward(host);
      if (host->count() > capacity_) overflow_treatment(host, reinserted);
    }
  }
}

namespace {

/// One candidate split distribution over a sorted sequence of rectangles.
struct SplitChoice {
  std::size_t axis = 0;       // 0 = x, 1 = y
  bool by_upper = false;      // sort key: lower or upper edge
  std::size_t split_at = 0;   // first group size
};

template <typename GetRect, typename Item>
geo::Rect mbr_of(const std::vector<Item>& items, std::size_t from,
                 std::size_t to, const GetRect& rect_of) {
  geo::Rect box = rect_of(items[from]);
  for (std::size_t i = from + 1; i < to; ++i) {
    box = box.united(rect_of(items[i]));
  }
  return box;
}

/// Implements the R* ChooseSplitAxis / ChooseSplitIndex pair over any item
/// type with an extractable rectangle. Sorts `items` in place according to
/// the winning axis/key and returns the winning first-group size.
template <typename Item, typename GetRect>
std::size_t rstar_split_position(std::vector<Item>& items, std::size_t min_fill,
                                 const GetRect& rect_of) {
  const std::size_t n = items.size();
  const std::size_t distributions = n - 2 * min_fill + 1;
  SALARM_ASSERT(n >= 2 * min_fill, "split on underfull node");

  double best_margin = kInf;
  SplitChoice best_axis_choice;

  for (std::size_t axis = 0; axis < 2; ++axis) {
    for (const bool by_upper : {false, true}) {
      std::stable_sort(items.begin(), items.end(),
                       [&](const Item& a, const Item& b) {
                         const geo::Rect& ra = rect_of(a);
                         const geo::Rect& rb = rect_of(b);
                         const double ka = axis == 0
                                               ? (by_upper ? ra.hi().x : ra.lo().x)
                                               : (by_upper ? ra.hi().y : ra.lo().y);
                         const double kb = axis == 0
                                               ? (by_upper ? rb.hi().x : rb.lo().x)
                                               : (by_upper ? rb.hi().y : rb.lo().y);
                         return ka < kb;
                       });
      double margin_sum = 0.0;
      for (std::size_t d = 0; d < distributions; ++d) {
        const std::size_t first = min_fill + d;
        margin_sum += mbr_of(items, 0, first, rect_of).margin() +
                      mbr_of(items, first, n, rect_of).margin();
      }
      if (margin_sum < best_margin) {
        best_margin = margin_sum;
        best_axis_choice = {axis, by_upper, 0};
      }
    }
  }

  // Re-sort by the winning axis/key, then pick the distribution with
  // minimum overlap (ties: minimum total area).
  const std::size_t axis = best_axis_choice.axis;
  const bool by_upper = best_axis_choice.by_upper;
  std::stable_sort(items.begin(), items.end(),
                   [&](const Item& a, const Item& b) {
                     const geo::Rect& ra = rect_of(a);
                     const geo::Rect& rb = rect_of(b);
                     const double ka = axis == 0
                                           ? (by_upper ? ra.hi().x : ra.lo().x)
                                           : (by_upper ? ra.hi().y : ra.lo().y);
                     const double kb = axis == 0
                                           ? (by_upper ? rb.hi().x : rb.lo().x)
                                           : (by_upper ? rb.hi().y : rb.lo().y);
                     return ka < kb;
                   });
  double best_overlap = kInf;
  double best_area = kInf;
  std::size_t best_split = min_fill;
  for (std::size_t d = 0; d < distributions; ++d) {
    const std::size_t first = min_fill + d;
    const geo::Rect g1 = mbr_of(items, 0, first, rect_of);
    const geo::Rect g2 = mbr_of(items, first, n, rect_of);
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

void RStarTree::split(Node* node) {
  auto sibling = std::make_unique<Node>(node->level);
  if (node->leaf()) {
    const std::size_t at = rstar_split_position(
        node->entries, min_fill_, [](const Entry& e) -> const geo::Rect& {
          return e.rect;
        });
    sibling->entries.assign(node->entries.begin() +
                                static_cast<std::ptrdiff_t>(at),
                            node->entries.end());
    node->entries.resize(at);
  } else {
    const std::size_t at = rstar_split_position(
        node->children, min_fill_,
        [](const std::unique_ptr<Node>& c) -> const geo::Rect& {
          return c->mbr;
        });
    for (std::size_t i = at; i < node->children.size(); ++i) {
      sibling->children.push_back(std::move(node->children[i]));
    }
    node->children.resize(at);
    for (auto& c : sibling->children) c->parent = sibling.get();
  }
  node->mbr = node->compute_mbr();
  sibling->mbr = sibling->compute_mbr();

  if (node == root_.get()) {
    auto new_root = std::make_unique<Node>(node->level + 1);
    auto old_root = std::move(root_);
    old_root->parent = new_root.get();
    sibling->parent = new_root.get();
    new_root->children.push_back(std::move(old_root));
    new_root->children.push_back(std::move(sibling));
    new_root->mbr = new_root->compute_mbr();
    root_ = std::move(new_root);
    return;
  }

  Node* parent = node->parent;
  sibling->parent = parent;
  parent->children.push_back(std::move(sibling));
  parent->mbr = parent->compute_mbr();
  adjust_upward(parent);
  if (parent->count() > capacity_) {
    std::vector<bool> reinserted(root_->level + 2, true);  // split-only path
    overflow_treatment(parent, reinserted);
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

}  // namespace

RStarTree RStarTree::bulk_load(std::vector<Entry> entries,
                               std::size_t node_capacity) {
  RStarTree tree(node_capacity);
  if (entries.empty()) return tree;
  tree.size_ = entries.size();

  // Level 0: tile the entries into leaves.
  std::vector<std::unique_ptr<Node>> level;
  {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.rect.center().x < b.rect.center().x;
                     });
    const auto leaf_sizes = balanced_groups(entries.size(), node_capacity);
    const auto slabs = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(leaf_sizes.size()))));
    const auto slab_groups =
        balanced_groups(entries.size(),
                        (entries.size() + slabs - 1) / slabs);
    std::size_t cursor = 0;
    for (const std::size_t slab_size : slab_groups) {
      std::stable_sort(entries.begin() + static_cast<std::ptrdiff_t>(cursor),
                       entries.begin() +
                           static_cast<std::ptrdiff_t>(cursor + slab_size),
                       [](const Entry& a, const Entry& b) {
                         return a.rect.center().y < b.rect.center().y;
                       });
      std::size_t offset = cursor;
      const std::size_t slab_end = cursor + slab_size;
      while (offset < slab_end) {
        const std::size_t take =
            std::min(node_capacity, slab_end - offset);
        // Balance the tail: if what would remain is underfull, split the
        // remainder of the slab evenly instead.
        const std::size_t remaining = slab_end - offset;
        std::size_t count = take;
        if (remaining > node_capacity &&
            remaining - take < tree.min_fill_) {
          count = remaining / 2;
        }
        auto leaf = std::make_unique<Node>(0);
        leaf->entries.assign(
            entries.begin() + static_cast<std::ptrdiff_t>(offset),
            entries.begin() + static_cast<std::ptrdiff_t>(offset + count));
        leaf->mbr = leaf->compute_mbr();
        level.push_back(std::move(leaf));
        offset += count;
      }
      cursor = slab_end;
    }
  }

  // Upper levels: tile the nodes of the previous level the same way.
  while (level.size() > 1) {
    std::stable_sort(level.begin(), level.end(),
                     [](const auto& a, const auto& b) {
                       return a->mbr.center().x < b->mbr.center().x;
                     });
    const auto slabs = static_cast<std::size_t>(std::ceil(std::sqrt(
        static_cast<double>((level.size() + node_capacity - 1) /
                            node_capacity))));
    const auto slab_groups = balanced_groups(
        level.size(), (level.size() + slabs - 1) / slabs);
    std::vector<std::unique_ptr<Node>> parents;
    std::size_t cursor = 0;
    for (const std::size_t slab_size : slab_groups) {
      std::stable_sort(level.begin() + static_cast<std::ptrdiff_t>(cursor),
                       level.begin() +
                           static_cast<std::ptrdiff_t>(cursor + slab_size),
                       [](const auto& a, const auto& b) {
                         return a->mbr.center().y < b->mbr.center().y;
                       });
      std::size_t offset = cursor;
      const std::size_t slab_end = cursor + slab_size;
      while (offset < slab_end) {
        const std::size_t remaining = slab_end - offset;
        std::size_t count = std::min(node_capacity, remaining);
        if (remaining > node_capacity &&
            remaining - count < tree.min_fill_) {
          count = remaining / 2;
        }
        auto parent = std::make_unique<Node>(level[offset]->level + 1);
        for (std::size_t i = 0; i < count; ++i) {
          level[offset + i]->parent = parent.get();
          parent->children.push_back(std::move(level[offset + i]));
        }
        parent->mbr = parent->compute_mbr();
        parents.push_back(std::move(parent));
        offset += count;
      }
      cursor = slab_end;
    }
    level = std::move(parents);
  }

  tree.root_ = std::move(level.front());
  tree.root_->parent = nullptr;
  return tree;
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

bool RStarTree::erase(const Entry& entry) {
  Node* leaf = find_leaf(root_.get(), entry);
  if (leaf == nullptr) return false;
  auto it = std::find_if(leaf->entries.begin(), leaf->entries.end(),
                         [&](const Entry& e) {
                           return e.id == entry.id && e.rect == entry.rect;
                         });
  SALARM_ASSERT(it != leaf->entries.end(), "find_leaf returned wrong leaf");
  leaf->entries.erase(it);
  --size_;
  condense(leaf);
  return true;
}

RStarTree::Node* RStarTree::find_leaf(Node* node, const Entry& entry) const {
  ++node_accesses_;
  if (node->leaf()) {
    for (const Entry& e : node->entries) {
      if (e.id == entry.id && e.rect == entry.rect) return node;
    }
    return nullptr;
  }
  for (const auto& child : node->children) {
    if (child->mbr.contains(entry.rect)) {
      if (Node* found = find_leaf(child.get(), entry)) return found;
    }
  }
  return nullptr;
}

void RStarTree::condense(Node* leaf) {
  std::vector<Entry> orphan_entries;
  std::vector<std::unique_ptr<Node>> orphan_nodes;

  if (leaf->count() > 0) leaf->mbr = leaf->compute_mbr();

  Node* node = leaf;
  while (node != root_.get()) {
    Node* parent = node->parent;
    if (node->count() < min_fill_) {
      // Detach the underfull node and queue its contents for reinsertion.
      auto it = std::find_if(parent->children.begin(), parent->children.end(),
                             [&](const auto& c) { return c.get() == node; });
      SALARM_ASSERT(it != parent->children.end(), "orphan without parent slot");
      std::unique_ptr<Node> detached = std::move(*it);
      parent->children.erase(it);
      if (detached->leaf()) {
        orphan_entries.insert(orphan_entries.end(), detached->entries.begin(),
                              detached->entries.end());
      } else {
        for (auto& c : detached->children) orphan_nodes.push_back(std::move(c));
      }
    }
    if (parent->count() > 0) parent->mbr = parent->compute_mbr();
    node = parent;
  }
  if (root_->count() > 0) root_->mbr = root_->compute_mbr();

  // Shrink the root while it is an internal node with a single child.
  while (!root_->leaf() && root_->children.size() == 1) {
    std::unique_ptr<Node> only = std::move(root_->children.front());
    only->parent = nullptr;
    root_ = std::move(only);
  }
  if (!root_->leaf() && root_->children.empty()) {
    root_ = std::make_unique<Node>(0);
  }

  // Reinsert orphaned subtrees (level by level, deepest first keeps the
  // leaf-depth invariant) and then leaf entries.
  std::stable_sort(orphan_nodes.begin(), orphan_nodes.end(),
                   [](const auto& a, const auto& b) {
                     return a->level > b->level;
                   });
  for (auto& orphan : orphan_nodes) {
    if (orphan->level + 1 > root_->level) {
      // The tree shrank below the orphan's level; dissolve the orphan.
      std::vector<Node*> stack{orphan.get()};
      while (!stack.empty()) {
        Node* n = stack.back();
        stack.pop_back();
        if (n->leaf()) {
          orphan_entries.insert(orphan_entries.end(), n->entries.begin(),
                                n->entries.end());
        } else {
          for (auto& c : n->children) stack.push_back(c.get());
        }
      }
      continue;
    }
    Node* host = root_.get();
    while (host->level > orphan->level + 1) {
      Node* best = nullptr;
      double best_enl = kInf;
      for (const auto& child : host->children) {
        const double enl = enlargement(child->mbr, orphan->mbr);
        if (enl < best_enl) {
          best_enl = enl;
          best = child.get();
        }
      }
      host = best;
      ++node_accesses_;
    }
    orphan->parent = host;
    host->children.push_back(std::move(orphan));
    host->mbr = host->compute_mbr();
    adjust_upward(host);
    if (host->count() > capacity_) {
      std::vector<bool> reinserted(root_->level + 2, true);
      overflow_treatment(host, reinserted);
    }
  }
  for (const Entry& e : orphan_entries) {
    std::vector<bool> reinserted(root_->level + 2, false);
    insert_entry(e, 0, reinserted);
  }
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

template <class Hit>
std::uint64_t RStarTree::descend(const Hit& hit, EntryVisitor visitor) const {
  if (size_ == 0) return 0;
  SALARM_ASSERT(height() * capacity_ <= kTraversalStack,
                "tree too tall for the fixed traversal stack");
  std::array<const Node*, kTraversalStack> stack;  // only [0, top) is read
  std::size_t top = 0;
  stack[top++] = root_.get();
  std::uint64_t accesses = 0;
  while (top > 0) {
    const Node* node = stack[--top];
    ++accesses;
    if (node->leaf()) {
      for (const Entry& e : node->entries) {
        if (hit(e.rect) && !visitor(e)) return accesses;
      }
    } else {
      for (const auto& child : node->children) {
        if (hit(child->mbr)) stack[top++] = child.get();
      }
    }
  }
  return accesses;
}

void RStarTree::visit(const geo::Rect& window, EntryVisitor visitor) const {
  node_accesses_ += descend(
      [&window](const geo::Rect& r) { return r.intersects(window); },
      visitor);
}

std::uint64_t RStarTree::probe(geo::Point p, EntryVisitor visitor) const {
  return descend([p](const geo::Rect& r) { return r.contains(p); }, visitor);
}

double RStarTree::nearest_distance(geo::Point p, EntryVisitor accept) const {
  if (size_ == 0) return kInf;
  struct QueueItem {
    double dist;
    const Node* node;  // nullptr when this is an entry
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
  push({root_->mbr.distance(p), root_.get()});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const QueueItem item = heap.back();
    heap.pop_back();
    // The first entry popped is the nearest accepted one.
    if (item.node == nullptr) return item.dist;
    ++node_accesses_;
    if (item.node->leaf()) {
      for (const Entry& e : item.node->entries) {
        if (accept(e)) push({e.rect.distance(p), nullptr});
      }
    } else {
      for (const auto& child : item.node->children) {
        push({child->mbr.distance(p), child.get()});
      }
    }
  }
  return kInf;
}

// ---------------------------------------------------------------------------
// Invariant checking (test hook)
// ---------------------------------------------------------------------------

void RStarTree::check_invariants() const {
  std::size_t leaf_entries = 0;
  std::size_t leaf_depth = root_->level;

  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node != root_.get()) {
      SALARM_ASSERT(node->count() >= min_fill_, "underfull node");
      SALARM_ASSERT(node->parent != nullptr, "non-root without parent");
    }
    SALARM_ASSERT(node->count() <= capacity_, "overfull node");
    if (node->count() > 0) {
      SALARM_ASSERT(node->mbr == node->compute_mbr(), "stale MBR");
    }
    if (node->leaf()) {
      SALARM_ASSERT(node->level == 0, "leaf at non-zero level");
      SALARM_ASSERT(root_->level - node->level == leaf_depth,
                    "leaves at different depths");
      leaf_entries += node->entries.size();
    } else {
      SALARM_ASSERT(!node->children.empty() || node == root_.get(),
                    "empty internal node");
      for (const auto& child : node->children) {
        SALARM_ASSERT(child->parent == node, "broken parent pointer");
        SALARM_ASSERT(child->level + 1 == node->level, "level mismatch");
        stack.push_back(child.get());
      }
    }
  }
  SALARM_ASSERT(leaf_entries == size_, "size counter out of sync");
}

}  // namespace salarm::index
