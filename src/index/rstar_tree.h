// R*-tree spatial index (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990).
//
// The paper indexes installed spatial alarms in an R*-tree [9] and evaluates
// every client position update against it; the safe-period baseline
// additionally needs nearest-neighbour distances. This is a from-scratch
// implementation with the full R* heuristics:
//
//  * ChooseSubtree — minimum overlap enlargement at the leaf level,
//    minimum area enlargement above (ties broken by area).
//  * Forced reinsertion — on first overflow per level per insertion, the
//    30% of entries farthest from the node centre are reinserted.
//  * R* split — axis chosen by minimum margin sum, distribution by minimum
//    overlap (ties by minimum area).
//
// Every node visit increments an accesses counter; the simulator's server
// cost model is built on these counts, so they are part of the public API.
//
// Window visits and point probes share one heap-free traversal: a LIFO
// descent over a fixed on-stack node stack (bounded by height × node
// capacity) that reports hits through a non-owning EntryVisitor, so the
// hot server and oracle paths allocate nothing. probe() is const in the
// strong sense — it returns its node accesses instead of counting them —
// so threads may probe a tree nobody mutates concurrently. The
// nearest-neighbour distance takes the same EntryVisitor as its filter and
// runs best-first on a reused thread-local heap.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/function_ref.h"
#include "geometry/point.h"
#include "geometry/rect.h"

namespace salarm::index {

/// An indexed item: a rectangle plus an opaque identifier.
struct Entry {
  geo::Rect rect;
  std::uint64_t id = 0;
};

/// The visitor of RStarTree::visit/probe and the filter of
/// nearest_distance.
using EntryVisitor = FunctionRef<bool(const Entry&)>;

/// The default filter of nearest_distance: every entry.
inline constexpr auto kAcceptAll = [](const Entry&) { return true; };

/// R*-tree over rectangle entries.
class RStarTree {
 public:
  /// Constructs a tree with the given node capacity (max entries per node,
  /// >= 4). Minimum fill is 40% of capacity per the R* paper.
  explicit RStarTree(std::size_t node_capacity = 16);
  ~RStarTree();

  RStarTree(RStarTree&&) noexcept;
  RStarTree& operator=(RStarTree&&) noexcept;
  RStarTree(const RStarTree&) = delete;
  RStarTree& operator=(const RStarTree&) = delete;

  /// Inserts an entry. Duplicate ids are allowed (the tree is a multiset);
  /// erase removes one matching (id, rect) pair.
  void insert(const Entry& entry);

  /// Builds a tree from a batch of entries with Sort-Tile-Recursive
  /// packing (Leutenegger et al.): sort by x-center into vertical slabs,
  /// sort each slab by y-center, cut into nodes, recurse on the node MBRs.
  /// Entry counts per node are balanced so every node meets the minimum
  /// fill; the result satisfies check_invariants() and supports all
  /// subsequent inserts/erases. Much faster than repeated insert() at
  /// comparable query quality (see bench/micro_rtree).
  static RStarTree bulk_load(std::vector<Entry> entries,
                             std::size_t node_capacity = 16);

  /// Removes one entry matching both id and rect exactly. Returns false if
  /// no such entry exists.
  bool erase(const Entry& entry);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t height() const;

  /// Visits entries intersecting the window; the visitor returns false to
  /// stop early. Allocates nothing; the nodes read are added to
  /// node_accesses().
  void visit(const geo::Rect& window, EntryVisitor visitor) const;

  /// Point probe: visits the entries whose rect (closed) contains p, in the
  /// same node order as visit(Rect(p, p)), and returns the number of nodes
  /// read — exactly what that visit would add to node_accesses(). The
  /// counter itself is left alone, so concurrent probes of a tree that no
  /// thread mutates are race-free; the caller accounts the returned count
  /// (add_node_accesses). Allocates nothing.
  std::uint64_t probe(geo::Point p, EntryVisitor visitor) const;

  /// Distance from p to the nearest entry by rectangle distance; infinity
  /// if none. A best-first search over the tree on a reused thread-local
  /// heap, so allocation-free on a warm thread; the nodes read are added to
  /// node_accesses(). Optionally filtered: entries rejected by `accept` are
  /// skipped but their leaves still count as node accesses, mirroring a
  /// server that must examine an entry to test relevance.
  double nearest_distance(geo::Point p,
                          EntryVisitor accept = kAcceptAll) const;

  /// Number of nodes read since the last reset (search + insert + erase
  /// paths). Mutable statistics, not part of logical state.
  std::uint64_t node_accesses() const { return node_accesses_; }
  void reset_node_accesses() { node_accesses_ = 0; }
  void add_node_accesses(std::uint64_t n) { node_accesses_ += n; }

  /// Verifies structural invariants (MBR correctness, fill factors, uniform
  /// leaf depth). Throws InvariantError on violation. Test hook.
  void check_invariants() const;

 private:
  struct Node;

  /// Fixed depth of the on-stack traversal stack. A LIFO descent holds at
  /// most node-capacity entries per level, so height() × capacity must fit
  /// (asserted per traversal).
  static constexpr std::size_t kTraversalStack = 1024;

  /// The shared visit/probe traversal: descends into every node whose MBR
  /// `hit` accepts, reports accepted leaf entries to the visitor (false
  /// stops), and returns the number of nodes read.
  template <class Hit>
  std::uint64_t descend(const Hit& hit, EntryVisitor visitor) const;

  void insert_entry(const Entry& entry, std::size_t target_level,
                    std::vector<bool>& reinserted);
  Node* choose_subtree(const Entry& entry, std::size_t target_level);
  void overflow_treatment(Node* node, std::vector<bool>& reinserted);
  void reinsert(Node* node, std::vector<bool>& reinserted);
  void split(Node* node);
  void adjust_upward(Node* node);
  void recompute_upward(Node* node);
  Node* find_leaf(Node* node, const Entry& entry) const;
  void condense(Node* leaf);

  std::unique_ptr<Node> root_;
  std::size_t capacity_;
  std::size_t min_fill_;
  std::size_t size_ = 0;
  mutable std::uint64_t node_accesses_ = 0;
};

}  // namespace salarm::index
