// The per-shard alarm-processing engine.
//
// One Server instance plays the paper's server role for one shard of a
// cluster::ShardedServer (the whole universe on a one-shard run): it
// receives position reports, evaluates them against the shard's R*-tree
// alarm index, and computes whatever the active strategy ships back
// (rectangular safe regions, pyramid bitmaps, safe periods, or OPT alarm
// pushes). Each grant call is declared once, here: clients reach them
// through net::ClientLink::request, which gates the call and hands it the
// owning shard's Server (cluster::ShardedServer::contact). A Server knows
// the extent it answers for, so it caps safe-period grants at that
// extent's internal sides itself. All events are attributed to the
// Metrics object: R*-tree node accesses from alarm processing land in
// server_alarm_ops, everything spent on safe region / safe period
// computation in server_region_ops, and downstream payload sizes (from
// the real wire formats) in downstream_region_bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alarms/alarm_store.h"
#include "dynamics/session_index.h"
#include "grid/grid_overlay.h"
#include "saferegion/motion_model.h"
#include "saferegion/mwpsr.h"
#include "saferegion/pyramid.h"
#include "saferegion/wire_format.h"
#include "sim/metrics.h"

namespace salarm::sim {

/// Cost-accounting weights (elementary operations). One elementary op is a
/// rectangle comparison; an R*-tree node access scans up to a node's
/// capacity of entries and is charged accordingly; every received position
/// update carries fixed handling overhead (parse, session lookup, dispatch)
/// regardless of what it hits in the index. A duplicate report suppressed
/// by the reliability protocol (net tier, DESIGN.md §9) is cheaper than a
/// processed one — parse, session lookup and one sequence-window
/// comparison, no index work — but it is real server load and must not
/// vanish from the cost model: retransmitted copies are charged at
/// kOpsPerDuplicateDrop each by net::ClientLink.
inline constexpr std::uint64_t kOpsPerNodeAccess = 16;
inline constexpr std::uint64_t kOpsPerUpdateOverhead = 25;
inline constexpr std::uint64_t kOpsPerDuplicateDrop = 5;

class Server {
 public:
  /// The store, grid and metrics must outlive the server. `extent` is the
  /// part of the grid's universe the server answers for: a shard's stripe,
  /// or the whole universe (the default) for the facade and one-shard runs.
  Server(alarms::AlarmStore& store, const grid::GridOverlay& grid,
         Metrics& metrics, const geo::Rect& extent);
  Server(alarms::AlarmStore& store, const grid::GridOverlay& grid,
         Metrics& metrics)
      : Server(store, grid, metrics, grid.universe()) {}

  /// Handles one client position report: counts the uplink message and
  /// evaluates the position against the alarm index. Returns the alarms
  /// fired for this subscriber (now spent); trigger notices are charged to
  /// the downstream notice counter and events appended to the trigger log.
  std::vector<alarms::AlarmId> handle_position_update(
      alarms::SubscriberId s, geo::Point position,
      std::uint64_t tick);

  /// Temporal evaluation of an outage-buffered report (DESIGN.md §9): the
  /// live index is consulted under an installed-at-stamp filter, and the
  /// removal graveyard is scanned for alarms that were live at the stamp
  /// but have since been uninstalled. On a static run both mechanisms
  /// degenerate to plain alarm processing.
  std::vector<alarms::AlarmId> handle_buffered_update(
      alarms::SubscriberId s, geo::Point position,
      std::uint64_t stamp_tick);

  /// Computes a rectangular (MWPSR) safe region for the subscriber at the
  /// given position/heading and charges its wire size downstream.
  saferegion::RectSafeRegion compute_rect_region(
      alarms::SubscriberId s, geo::Point position, double heading,
      const saferegion::MotionModel& model,
      const saferegion::MwpsrOptions& options);

  /// Computes a pyramid bitmap over the subscriber's current base cell and
  /// charges its wire size downstream. The full build is served from a
  /// per-cell memo of exact builds (pyramid_memo_): a build whose cell,
  /// ordered relevant regions and configuration all match returns a copy
  /// of the stored bitmap and charges the stored build ops, so grants and
  /// counted ops are those of a server that rebuilds every time. With
  /// `public_cache` (paper §4.2), the subscriber-independent public-alarm
  /// bitmap is built once per cell and configuration and intersected with
  /// the subscriber's private-alarm bitmap; the full build runs only when
  /// the subscriber has already spent a public alarm in the cell (the
  /// cached bitmap would be needlessly conservative there).
  saferegion::PyramidBitmap compute_pyramid_region(
      alarms::SubscriberId s, geo::Point position,
      const saferegion::PyramidConfig& config, bool public_cache = false);

  /// Computes the safe-period grant: distance to the nearest relevant
  /// alarm region, capped at the escape distance, over the worst-case
  /// speed bound, clamped below by one tick. The escape distance is the
  /// distance to the sides of the server's extent that lie strictly inside
  /// the universe: a shard knows nothing about alarms beyond its extent,
  /// while a universe edge cannot be crossed. Returns infinity when no
  /// relevant alarm remains and the extent is the whole universe.
  double compute_safe_period(alarms::SubscriberId s, geo::Point position,
                             double max_speed_mps, double tick_seconds);

  /// OPT: all relevant alarms intersecting the subscriber's current cell,
  /// charged downstream at the alarm-push wire size.
  std::vector<const alarms::SpatialAlarm*> push_alarms(
      alarms::SubscriberId s, geo::Point position);

  /// Switches on the dynamics tier (DESIGN.md §8): every grant handed out
  /// from here on is recorded in a SessionIndex, and online installs push
  /// invalidations into per-subscriber mailboxes. Off by default so static
  /// runs stay bit-identical to the pre-dynamics simulator.
  void enable_dynamics(std::size_t subscriber_count);

  /// Installs an alarm online at the given tick and invalidates every
  /// outstanding grant the alarm's region (closed) intersects, for
  /// subscribers the alarm applies to. The install tick is recorded so
  /// outage-buffered reports stamped earlier are not evaluated against it.
  /// Requires enable_dynamics.
  void install_alarm(const alarms::SpatialAlarm& alarm, std::uint64_t tick);

  /// Removes an alarm online at the given tick; outstanding grants stay
  /// sound (they are merely smaller than necessary) and re-widen at the
  /// client's next natural refresh, so no pushes are sent. The alarm moves
  /// to the removal graveyard with its [installed, removed) lifetime so
  /// outage-buffered reports stamped inside the lifetime can still fire
  /// it. Returns false if absent.
  bool remove_alarm(alarms::AlarmId id, std::uint64_t tick);

  /// Drains the subscriber's invalidation mailbox: pushes queued by alarm
  /// installs since the subscriber's previous tick (always empty on static
  /// runs).
  std::vector<dynamics::InvalidationPush> take_invalidations(
      alarms::SubscriberId s);

  // ---- Failover tier (DESIGN.md §10; every call is serial-phase only) ----

  /// Simulates a process crash: everything a real shard process keeps in
  /// memory is dropped — the alarm index (spent state included), the
  /// install-tick map, the removal graveyard, the outstanding-grant table,
  /// the invalidation mailboxes, the public-bitmap cache and the pyramid
  /// build memo. Metrics and the trigger log survive on purpose: they are
  /// the run's *measurements* (delivered notices live with the clients),
  /// not server state.
  void crash();

  /// The server's durable state as of `tick`: the installed alarms in
  /// store slot order with their install ticks (0 = loaded at run start),
  /// the removal graveyard in removal order, the sorted spent pairs and
  /// the outstanding grants sorted by subscriber. The caller owns the
  /// message's `shard` field. Reads no index, so nothing is charged.
  wire::ShardCheckpointMsg checkpoint(std::uint64_t tick) const;

  /// Recovery: rebuilds the durable state of a crashed server from a
  /// checkpoint, then replays the journal records written after it. They
  /// rebuild state without re-counting it as fresh work: the original
  /// install/remove/fire was charged before the crash (metrics survive
  /// it), so they only touch the store, the graveyard and the grant table
  /// — recovery effort is priced separately from the fo_* counters by the
  /// cost model. A replayed removal of an absent alarm is a no-op.
  void restore(const wire::ShardCheckpointMsg& checkpoint);
  void replay(const wire::JournalRecordMsg& record);

  /// Drops graveyard tombs no pending buffered report can still observe: a
  /// tomb is only consulted for reports stamped strictly before its
  /// removal tick, so once every pending buffered stamp is >= `watermark`,
  /// tombs with removed_at <= watermark are dead. Uncharged maintenance
  /// bookkeeping (it shrinks, never adds, buffered-path work). Returns the
  /// number of tombs dropped.
  std::size_t compact_graveyard(std::uint64_t watermark);

  const grid::GridOverlay& grid() const { return grid_; }
  alarms::AlarmStore& store() { return store_; }
  Metrics& metrics() { return metrics_; }
  const std::vector<alarms::TriggerEvent>& trigger_log() const {
    return trigger_log_;
  }

 private:
  /// A removed alarm's copy with its [installed, removed) lifetime, kept
  /// for temporal evaluation of outage-buffered reports; checkpoints hold
  /// the graveyard as is.
  using Tomb = wire::ShardCheckpointMsg::TombRec;

  /// Runs fn and attributes the R*-tree node accesses it incurs to the
  /// given counter, weighted by kOpsPerNodeAccess.
  template <typename Fn>
  auto charged(std::uint64_t Metrics::* counter, Fn&& fn) {
    const std::uint64_t before = store_.index_node_accesses();
    auto result = fn();
    metrics_.*counter +=
        (store_.index_node_accesses() - before) * kOpsPerNodeAccess;
    return result;
  }

  /// Builds the pyramid of the cell at flat index `flat` over regions_,
  /// from the memo when an equal build is stored there; charges the build
  /// ops to server_region_ops either way.
  saferegion::PyramidBitmap memoized_build(
      std::size_t flat, const geo::Rect& cell,
      const saferegion::PyramidConfig& config);

  /// Refills regions_ with the regions of the alarms relevant to s (of the
  /// given scopes) in the cell, charging the window query's node accesses
  /// to server_region_ops.
  void load_regions(const geo::Rect& cell, alarms::SubscriberId s,
                    alarms::AlarmStore::Scopes scopes);

  /// Evaluates one position report: counts the uplink message and its
  /// handling overhead, probes the index through `filter` and charges the
  /// fired alarms' trigger notices.
  std::vector<alarms::AlarmId> evaluate_report(
      alarms::SubscriberId s, geo::Point position, std::uint64_t tick,
      FunctionRef<bool(alarms::AlarmId)> filter);

  /// Counts one fired alarm and charges its trigger notice.
  void notify(const alarms::SpatialAlarm& alarm);

  /// Books the grant just computed for s: counts the recompute, charges
  /// `bytes` downstream (0: the grant ships nothing) and, with dynamics
  /// on, records its footprint in the SessionIndex, whose node accesses
  /// are charged like any other region work.
  void book_grant(alarms::SubscriberId s, dynamics::GrantKind kind,
                  const geo::Rect& bounds, std::size_t bytes);

  /// Moves installed alarm `id` to the graveyard with its lifetime, ending
  /// at `tick`, and uninstalls it: the step online removal and replayed
  /// removal share.
  void bury(alarms::AlarmId id, std::uint64_t tick);

  /// Installs an alarm as it stood before a crash, uncharged.
  void reinstall(const alarms::SpatialAlarm& alarm,
                 std::uint64_t installed_at);

  /// Queues one invalidation push for s (action chosen from the grant
  /// kind) and charges its wire size. Revoked grants are forgotten.
  void push_invalidation(alarms::SubscriberId s, dynamics::GrantKind kind,
                         const alarms::SpatialAlarm& alarm);

  alarms::AlarmStore& store_;
  const grid::GridOverlay& grid_;
  Metrics& metrics_;
  geo::Rect extent_;
  std::vector<alarms::TriggerEvent> trigger_log_;
  /// Window-query scratch of the geometric safe-region computations,
  /// reused across contacts (a shard's contacts run on one thread).
  std::vector<geo::Rect> regions_;

  bool dynamics_enabled_ = false;
  dynamics::SessionIndex sessions_;
  std::vector<std::vector<dynamics::InvalidationPush>> mailboxes_;

  /// Temporal alarm-lifetime bookkeeping for outage-buffered reports
  /// (DESIGN.md §9). Alarms absent from installed_at_ were loaded at run
  /// start (tick 0). The graveyard keeps a copy of every online-removed
  /// alarm with its lifetime (Tomb); it is scanned linearly (one
  /// elementary op per tomb) only on the rare buffered-report path, and
  /// compacted against the pending-stamp watermark (compact_graveyard).
  std::unordered_map<alarms::AlarmId, std::uint64_t> installed_at_;
  std::vector<Tomb> graveyard_;

  /// The public-alarm bitmap of each cell (its configuration is the
  /// bitmap's own; a call under another one rebuilds) and the public
  /// alarms it covers. Sized to the grid on the first cached grant.
  struct PublicCacheEntry {
    saferegion::PyramidBitmap bitmap;
    std::vector<alarms::AlarmId> public_ids;
  };
  std::vector<std::optional<PublicCacheEntry>> public_cache_;

  /// One stored exact build: its key (the ordered regions; the
  /// configuration is the bitmap's own) and its result. The key is
  /// complete because a build is a pure function of (cell, ordered
  /// regions, configuration).
  struct PyramidBuild {
    std::vector<geo::Rect> regions;
    std::uint64_t ops = 0;
    saferegion::PyramidBitmap bitmap;
  };
  /// Up to kPyramidMemoWays builds of one cell, most recent first. A miss
  /// overwrites the least recent way in place; since every way's buffers
  /// are kept at the cell's largest stored key and bitmap, that reuses
  /// them, and a cell allocates only when a build outgrows all before it.
  struct PyramidMemoCell {
    std::vector<PyramidBuild> ways;
    std::size_t max_regions = 0;
    std::size_t max_nodes = 0;
  };
  static constexpr std::size_t kPyramidMemoWays = 4;
  /// Sized to the grid on the first pyramid contact, so runs that grant no
  /// pyramid carry none of it.
  std::vector<PyramidMemoCell> pyramid_memo_;
};

}  // namespace salarm::sim
