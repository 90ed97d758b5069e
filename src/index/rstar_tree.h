// R*-tree spatial index (Beckmann, Kriegel, Schneider, Seeger, SIGMOD 1990).
//
// The paper indexes installed spatial alarms in an R*-tree [9] and evaluates
// every client position update against it; the safe-period baseline
// additionally needs nearest-neighbour distances. This is a from-scratch
// implementation with the full R* heuristics:
//
//  * ChooseSubtree — minimum overlap enlargement at the leaf level (ties
//    by area enlargement, then area), minimum area enlargement above
//    (ties by area); the first child in slot order wins a full tie, and
//    also wins when no cost compares (NaN, once areas overflow). A
//    child that contains the new box costs exactly (+0, +0, area) and no
//    child costs less, so when one does, only children whose area
//    enlargement is exactly 0 (degenerate boxes) can tie with it, and
//    only they get overlap sums. They must be kept: one of them may have
//    the smaller area. The shortcut holds while every grown area is at
//    most DBL_MAX / 128, so that no sum overflows; past that bound every
//    child is summed.
//  * Forced reinsertion — on first overflow per level per insertion, the
//    30% of entries farthest from the node centre are reinserted.
//  * R* split — axis chosen by minimum margin sum, distribution by minimum
//    overlap (ties by minimum area).
//
// Every node visit increments an accesses counter; the simulator's server
// cost model is built on these counts, so they are part of the public API.
//
// The nodes live in one arena indexed by 32-bit node ids. Node n owns the
// slot range [n × (capacity + 1), (n + 1) × (capacity + 1)), stored as
// parallel arrays of box coordinates (lo_x, lo_y, hi_x, hi_y) and a ref:
// a child's node id in an inner node, an entry id in a leaf. A child's box
// lives in its parent's slot, so a descent tests a whole node's children
// from one node's contiguous slots without touching the children. Nodes
// that condensing frees go on a free list for the next split to reuse, and
// a mutation's scratch (reinsert orphans, split items, condense orphans) is
// kept in the tree, so warm inserts and erases allocate nothing.
//
// Window visits and point probes share one heap-free traversal: per node,
// a branch-free pass over its slots builds a 64-bit hit mask (hence
// capacity + 1 <= 64), and a LIFO descent over a fixed on-stack node stack
// (bounded by height × node capacity) walks its set bits in slot order,
// reporting leaf hits through a non-owning EntryVisitor. probe() is const
// in the strong sense — it returns its node accesses instead of counting
// them — so threads may probe a tree nobody mutates concurrently.
//
// The nearest-neighbour distance (the safe-period baseline's search) is a
// heap-free depth-first branch-and-bound (Roussopoulos, Kelley & Vincent,
// SIGMOD 1995) that filters entries by id. It charges the node accesses of
// the best-first search (Hjaltason & Samet, TODS 1999) that the cost model
// was calibrated on. Keys are rectangle distances, the root's key is 0, and
// d* is the smallest key of an accepted entry (infinity if none). No key is
// below its parent's, so best-first pops the root, every node with key < d*,
// no node with key > d*, and of the nodes with key == d* those its heap
// happens to pop before the answer. When exactly one accepted entry has key
// d* and every other node with key d* is one of its ancestors, that is
// 1 + (non-root nodes with key <= d*), whatever the heap's tie order: a
// second pruned pass counts them. Otherwise (and at a non-finite position)
// the best-first search itself runs, on a reused thread-local heap.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// The visitor of RStarTree::visit/probe.
using EntryVisitor = FunctionRef<bool(const Entry&)>;

/// The filter of nearest_distance: true keeps the entry with this id.
using IdFilter = FunctionRef<bool(std::uint64_t id)>;

/// The default filter of nearest_distance: every entry.
inline constexpr auto kAcceptAll = [](std::uint64_t) { return true; };

/// R*-tree over rectangle entries.
class RStarTree {
 public:
  /// Constructs a tree with the given node capacity (max entries per node,
  /// 4 to kMaxCapacity). Minimum fill is 40% of capacity per the R* paper.
  explicit RStarTree(std::size_t node_capacity = 16);

  /// The largest node capacity: a node's capacity + 1 slots (one over, for
  /// the overflowing insert) must fit one 64-bit hit mask.
  static constexpr std::size_t kMaxCapacity = 63;

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
  /// if none. Adds to node_accesses() the nodes a best-first search reads
  /// (see the header comment), and allocates nothing on a warm thread.
  /// Optionally filtered: entries rejected by `accept` are skipped but
  /// their leaves still count as node accesses, mirroring a server that
  /// must examine an entry to test relevance. `accept` must answer the
  /// same for an id throughout the call.
  double nearest_distance(geo::Point p, IdFilter accept = kAcceptAll) const;

  /// The best-first search nearest_distance falls back to, forced: the
  /// same distance and node accesses. Test hook.
  double nearest_distance_best_first(geo::Point p,
                                     IdFilter accept = kAcceptAll) const;

  /// Number of nearest_distance calls that ran the best-first fallback.
  /// Mutable statistics, like node_accesses().
  std::uint64_t nearest_fallbacks() const { return nearest_fallbacks_; }

  /// Number of nodes read since the last reset (search + insert + erase
  /// paths). Mutable statistics, not part of logical state.
  std::uint64_t node_accesses() const { return node_accesses_; }
  void reset_node_accesses() { node_accesses_ = 0; }
  void add_node_accesses(std::uint64_t n) { node_accesses_ += n; }

  /// Verifies structural invariants: fill factors, levels, each parent
  /// slot's box equal to the union of its child's slots, parent ids that
  /// match the slots referring to them, the size counter, and every arena
  /// node either live or on the free list, never both. Throws
  /// InvariantError on violation. Test hook.
  void check_invariants() const;

 private:
  using NodeId = std::uint32_t;
  static constexpr NodeId kNoNode = ~NodeId{0};

  struct Meta {
    std::uint32_t level = 0;  ///< 0 for leaves, parent level = child + 1
    std::uint32_t count = 0;  ///< slots in use
    NodeId parent = kNoNode;  ///< kNoNode for the root (and freed nodes)
  };

  /// A slot's contents out of the arena: mutation scratch.
  struct Slot {
    geo::Rect box;
    std::uint64_t ref = 0;
  };

  /// Levels whose first overflow of the current insertion was already
  /// treated by reinsertion (bit l = level l); all set = split only.
  using LevelSet = std::uint64_t;
  static constexpr LevelSet kSplitOnly = ~LevelSet{0};

  /// Fixed depth of the on-stack traversal stack. A LIFO descent holds at
  /// most node-capacity entries per level, so height() × capacity must fit
  /// (asserted per traversal).
  static constexpr std::size_t kTraversalStack = 1024;

  /// The shared visit/probe traversal: descends into every child whose box
  /// `pair_hits` accepts (called on two slots' lo_x, lo_y, hi_x, hi_y at a
  /// time), reports accepted leaf entries to the visitor (false stops), and
  /// returns the number of nodes read.
  template <class PairHits>
  std::uint64_t descend(const PairHits& pair_hits, EntryVisitor visitor) const;

  /// nearest_distance's first pass: lowers `best` to the smallest key of an
  /// accepted entry under `node`, nearest child first, skipping children
  /// whose key exceeds `best`.
  void bound_nearest(NodeId node, geo::Point p, IdFilter accept,
                     double& best) const;

  /// What nearest_distance's second pass finds: the nodes with key <= d*,
  /// the accepted entries with key == d*, and whether every non-root node
  /// with key == d* holds one of those entries.
  struct Census {
    std::uint64_t nodes = 0;
    std::uint64_t ties = 0;
    bool ties_on_path = true;
  };

  /// nearest_distance's second pass over `node` and its descendants with
  /// key <= d*. Returns whether the subtree holds an accepted entry with
  /// key == d*.
  bool census(NodeId node, geo::Point p, IdFilter accept, double d_star,
              Census& out) const;

  std::size_t first_slot(NodeId n) const { return n * stride_; }
  geo::Rect box(std::size_t slot) const;
  void set_box(std::size_t slot, const geo::Rect& box);
  Slot slot_at(std::size_t slot) const { return {box(slot), ref_[slot]}; }
  /// box(slot).distance(p) and box(slot) == r, without building the box.
  double slot_distance(std::size_t slot, geo::Point p) const;
  bool slot_equals(std::size_t slot, const geo::Rect& r) const;
  /// Sets box(slot) to box(slot).united(box(from)).
  void unite_slot(std::size_t slot, std::size_t from);
  /// The union of n's slots (n's MBR). Requires a non-empty node.
  geo::Rect node_box(NodeId n) const;
  /// The slot of n's parent that holds n. Requires a non-root node.
  std::size_t parent_slot(NodeId n) const;
  /// Stores n's MBR in its parent's slot; the root's MBR is not stored.
  void set_mbr(NodeId n, const geo::Rect& mbr);
  /// Appends a slot to n (re-parenting the child in an inner node).
  void append(NodeId n, const Slot& slot);
  void append_slots(NodeId n, const std::vector<Slot>& from,
                    std::size_t begin, std::size_t end);
  /// Removes one of n's slots, keeping the others in order.
  void remove_slot(NodeId n, std::size_t slot);
  /// Copies n's slots into `out`, replacing its contents.
  void gather(NodeId n, std::vector<Slot>& out) const;
  NodeId alloc_node(std::uint32_t level);
  void free_node(NodeId n);

  void insert_entry(const Slot& entry, LevelSet& reinserted);
  /// R* ChooseSubtree from the root down to a leaf.
  NodeId choose_leaf(const geo::Rect& rect);
  struct ChildCosts;
  /// Fills `out` with the children of inner node n (at rest) against r.
  void child_costs(NodeId n, const geo::Rect& r, ChildCosts& out) const;
  /// out[i], for each bit i of `children`: the overlap enlargement of child
  /// i of n (the sum of its grown box's overlaps with its siblings, less its
  /// box's). Also writes out[i ^ 1]; only [0, count) is meaningful.
  void overlap_enlargements(NodeId n, const ChildCosts& costs,
                            std::uint64_t children, double* out) const;
  void overflow_treatment(NodeId node, LevelSet& reinserted);
  void reinsert(NodeId node, LevelSet& reinserted);
  void split(NodeId node);
  void adjust_upward(NodeId node);
  void recompute_upward(NodeId node);
  NodeId find_leaf(NodeId node, const Entry& entry) const;
  void condense(NodeId leaf);

  std::size_t capacity_;
  std::size_t min_fill_;
  std::size_t stride_;  ///< slots per node: capacity + 1
  // The arena: slot arrays (stride_ per node) and per-node metadata.
  std::vector<double> lo_x_, lo_y_, hi_x_, hi_y_;
  std::vector<std::uint64_t> ref_;
  std::vector<Meta> meta_;
  std::vector<NodeId> free_;
  NodeId root_ = kNoNode;
  std::size_t size_ = 0;
  mutable std::uint64_t node_accesses_ = 0;
  mutable std::uint64_t nearest_fallbacks_ = 0;
  // Mutation scratch, kept so warm inserts and erases allocate nothing.
  std::vector<Slot> split_items_;
  std::vector<Slot> reinsert_orphans_;
  std::vector<Slot> orphan_entries_;
  std::vector<Slot> orphan_nodes_;
};

}  // namespace salarm::index
