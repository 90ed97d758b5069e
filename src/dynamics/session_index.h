// Outstanding-grant index for the invalidation protocol (DESIGN.md §8).
//
// Whenever the server issues a safe region, a safe period or a client-side
// alarm list, it records the grant's conservative bounding box here. An
// alarm install then becomes a range query: every grant whose box (closed)
// intersects the new alarm's region might mask it and must be invalidated.
// Closed intersection errs on the side of pushing — a grant that merely
// touches the alarm region is still invalidated, which costs one push but
// can never cost accuracy.
//
// Each subscriber holds at most one grant (issuing a new one replaces the
// old), so the index is an R*-tree over at most `subscriber_count` boxes
// with the subscriber id as the entry id, plus a side map for exact-rect
// erasure and kind lookup. Node accesses are metered like every other
// server-side index so the cost model can price the range queries.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alarms/spatial_alarm.h"
#include "common/function_ref.h"
#include "dynamics/invalidation.h"
#include "geometry/rect.h"
#include "index/rstar_tree.h"

namespace salarm::dynamics {

/// Tracks, per subscriber, the one outstanding grant the server has issued
/// and not yet seen superseded. Not thread-safe: in the sharded tier each
/// shard owns its own SessionIndex and mutates it only from the shard's
/// tick task or from the serial churn phase.
class SessionIndex {
 public:
  struct Grant {
    GrantKind kind = GrantKind::kRect;
    geo::Rect bounds;
  };

  SessionIndex() = default;

  /// Records (or replaces) subscriber s's outstanding grant.
  void record(alarms::SubscriberId s, GrantKind kind, const geo::Rect& bounds);

  /// Forgets subscriber s's grant; returns false if none was recorded.
  bool clear(alarms::SubscriberId s);

  /// The grant currently recorded for s, or nullptr. The pointer is valid
  /// until the next record/clear.
  const Grant* lookup(alarms::SubscriberId s) const;

  /// The visitor of visit_intersecting; false stops the visit.
  using GrantVisitor = FunctionRef<bool(alarms::SubscriberId, const Grant&)>;

  /// Visits every (subscriber, grant) whose bounds (closed) intersect the
  /// window; the visitor returns false to stop early.
  void visit_intersecting(const geo::Rect& window, GrantVisitor fn) const;

  std::size_t size() const { return grants_.size(); }

  /// All (subscriber, grant) entries sorted by subscriber id — the grant
  /// table exported into shard checkpoints (failover tier, DESIGN.md §10).
  /// Reads the side map only, so no R*-tree node accesses are charged.
  std::vector<std::pair<alarms::SubscriberId, Grant>> snapshot() const;

  /// R*-tree node accesses since the last reset (cost-model input).
  std::uint64_t node_accesses() const { return tree_.node_accesses(); }
  void reset_node_accesses() { tree_.reset_node_accesses(); }

 private:
  index::RStarTree tree_;  // entry id = subscriber id
  std::unordered_map<alarms::SubscriberId, Grant> grants_;
};

}  // namespace salarm::dynamics
