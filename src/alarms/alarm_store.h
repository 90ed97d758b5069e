// Server-side alarm storage: the installed-alarm set, the R*-tree index
// over alarm regions (paper §5.1), relevance filtering, and one-shot
// trigger bookkeeping.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "alarms/spatial_alarm.h"
#include "common/function_ref.h"
#include "common/rng.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "index/rstar_tree.h"

namespace salarm::alarms {

/// private : shared ratio among non-public alarms (paper §5.1: 2:1).
inline constexpr double kPrivateToShared = 2.0;
/// Shared alarms authorize between these many subscribers (inclusive),
/// owner included.
inline constexpr std::size_t kSharedSubscribersLo = 2;
inline constexpr std::size_t kSharedSubscribersHi = 5;
/// Default range of alarm region sides in meters (the paper states no
/// sizes; DESIGN.md §4).
inline constexpr double kRegionSideLo = 100.0;
inline constexpr double kRegionSideHi = 500.0;

/// Parameters of the paper's default alarm workload (§5.1): alarms on
/// targets distributed uniformly over the map; a percentage are public,
/// the rest private and shared in ratio kPrivateToShared.
struct AlarmWorkloadConfig {
  std::size_t alarm_count = 10000;
  std::size_t subscriber_count = 10000;
  double public_fraction = 0.10;
  /// Alarm regions are squares with side drawn uniformly from this range
  /// (meters).
  double region_side_lo = kRegionSideLo;
  double region_side_hi = kRegionSideHi;
};

/// The default filter of AlarmStore::process_position: every alarm.
inline constexpr auto kAcceptAll = [](AlarmId) { return true; };

/// Holds all installed alarms and answers the server's spatial questions.
/// The R*-tree node-access counter doubles as the alarm-processing cost
/// meter for the server cost model.
///
/// Alarm ids need not be dense: a store may hold an arbitrary subset of a
/// global id space. The cluster tier (cluster/sharded_server.h) relies on
/// this to give every shard a slice of the global alarm set under the
/// original global ids, so trigger logs and spent state stay comparable
/// across shards.
class AlarmStore {
 public:
  explicit AlarmStore(std::size_t rtree_node_capacity = 16);

  /// Installs an alarm; its id must not already be installed. The region
  /// must have positive area. Subscriber lists are kept sorted.
  void install(SpatialAlarm alarm);

  /// Installs a whole workload at once (ids must be unique but may be any
  /// subset of the id space), bulk-loading the R*-tree with STR packing —
  /// the right way to stand up the paper's 10,000-alarm index at startup.
  /// Only valid on an empty store.
  void install_bulk(std::vector<SpatialAlarm> alarms);

  /// Uninstalls an alarm; returns false if absent. The remaining alarms
  /// keep their ids but may change slot order (swap-and-pop), so all()
  /// reflects exactly the installed set.
  bool uninstall(AlarmId id);

  /// Removes every alarm and all trigger state, leaving an empty store
  /// ready for installs — the crash path of sim::Server::crash.
  void clear();

  /// Moves an alarm's region (the paper's moving-target alarm classes:
  /// the target publishes a new position, the alarm region follows).
  /// Trigger state is preserved: subscribers for whom the alarm already
  /// fired stay spent. Requires the alarm to be installed and the new
  /// region to have positive area.
  void move_alarm(AlarmId id, const geo::Rect& new_region);

  std::size_t size() const { return alarms_.size(); }
  /// Node capacity of the R*-tree index; the cluster tier builds shard
  /// slices with the same capacity so per-query node-access counts match
  /// the source store's.
  std::size_t rtree_node_capacity() const { return rtree_node_capacity_; }
  const SpatialAlarm& alarm(AlarmId id) const;
  const std::vector<SpatialAlarm>& all() const { return alarms_; }

  /// True when an alarm with this id is currently installed.
  bool installed(AlarmId id) const { return slot_of(id) != kNoSlot; }

  /// True when the alarm applies to the subscriber (public, or subscriber
  /// on the list) and has not yet fired for them.
  bool relevant(const SpatialAlarm& alarm, SubscriberId s) const;

  /// True when the alarm applies to the subscriber regardless of spent
  /// state (used by workload statistics).
  static bool subscribed(const SpatialAlarm& alarm, SubscriberId s);

  /// All alarms relevant to s whose region (closed) intersects the window.
  /// Pointers remain valid until the next install/uninstall.
  std::vector<const SpatialAlarm*> relevant_in_window(const geo::Rect& window,
                                                      SubscriberId s) const;

  /// Which of a subscriber's relevant alarms relevant_regions_in_window
  /// reports: all of them, or only the private/shared ones (the
  /// precomputed-public-bitmap path, paper §4.2).
  enum class Scopes { kAll, kNonPublic };

  /// The server's window query for the geometric safe-region algorithms:
  /// appends to `out` the region of every alarm relevant_in_window reports
  /// (public ones only under Scopes::kAll), in the same visit order and
  /// with the same node accesses. Allocates only when `out` must grow.
  void relevant_regions_in_window(const geo::Rect& window, SubscriberId s,
                                  Scopes scopes,
                                  std::vector<geo::Rect>& out) const;

  /// All public alarms intersecting the window, regardless of per-
  /// subscriber spent state (the subscriber-independent input to the
  /// precomputed public bitmap).
  std::vector<const SpatialAlarm*> public_in_window(
      const geo::Rect& window) const;

  /// The read-only half of process_position: appends to `fired` the id of
  /// every alarm relevant to s whose region interior contains p, in index
  /// visit order, and returns the R*-tree node accesses the probe made.
  /// Neither the trigger state nor index_node_accesses() changes, so
  /// threads may probe a store that no thread mutates concurrently.
  /// Allocates only when `fired` must grow. (The ground-truth oracle,
  /// sim/oracle.h, deliberately does not use it: it matches positions
  /// against a table of its own.)
  std::uint64_t probe_position(SubscriberId s, geo::Point p,
                               std::vector<AlarmId>& fired) const;

  /// Server-side alarm processing of one position update: probe_position,
  /// then marks the fired pairs spent and returns their alarm ids (empty
  /// in the common case, which allocates nothing). `filter` restricts
  /// evaluation to alarms it accepts — the buffered-report path
  /// (sim/server.h handle_buffered_update) uses it to evaluate a late
  /// report only against alarms already installed at its original tick.
  std::vector<AlarmId> process_position(
      SubscriberId s, geo::Point p, std::uint64_t tick,
      std::vector<TriggerEvent>* log,
      FunctionRef<bool(AlarmId)> filter = kAcceptAll);

  /// Marks an (alarm, subscriber) pair spent without going through
  /// process_position; used by client-side evaluation strategies (OPT)
  /// when the client reports a trigger, and by the buffered-report
  /// graveyard path for alarms that have since been uninstalled — trigger
  /// history deliberately outlives removal (uninstall keeps spent state),
  /// so the id need not be installed.
  void mark_spent(AlarmId id, SubscriberId s);

  bool spent(AlarmId id, SubscriberId s) const;

  /// All (alarm, subscriber) pairs marked spent, sorted — the durable
  /// trigger history exported into shard checkpoints (failover tier,
  /// DESIGN.md §10).
  std::vector<std::pair<AlarmId, SubscriberId>> spent_pairs() const;

  /// Forgets all trigger state (the alarm set itself is kept); used to run
  /// several strategies against the identical workload.
  void reset_triggers();

  /// Distance from p to the nearest relevant alarm region for s
  /// (infinity when none); drives the safe-period baseline.
  double nearest_relevant_distance(geo::Point p, SubscriberId s) const;

  /// Cumulative R*-tree node accesses (alarm processing + NN); the server
  /// cost model reads and resets this.
  std::uint64_t index_node_accesses() const { return tree_.node_accesses(); }
  void reset_index_node_accesses() { tree_.reset_node_accesses(); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// The IdSlot tags that are not a subscriber id.
  static constexpr std::uint32_t kPublicTag = ~std::uint32_t{0};
  static constexpr std::uint32_t kListTag = kPublicTag - 1;

  /// An id's alarm slot, and whom the alarm is for without reading it: its
  /// only subscriber, kPublicTag, or kListTag (read the subscriber list).
  struct IdSlot {
    std::uint32_t slot = kNoSlot;
    std::uint32_t tag = kListTag;
  };

  std::uint64_t spend_key(AlarmId a, SubscriberId s) const {
    return (static_cast<std::uint64_t>(a) << 32) | s;
  }

  std::size_t slot_of(AlarmId id) const {
    return id < slot_of_.size() ? slot_of_[id].slot : kNoSlot;
  }

  /// The tag of an admitted alarm (sorted, unique subscribers).
  static std::uint32_t tag_of(const SpatialAlarm& alarm);

  /// subscribed(alarm, s) for the alarm at `at`, from its tag.
  bool subscribed(IdSlot at, SubscriberId s) const;

  /// Validates the alarm, normalizes its subscriber list and records its
  /// slot; shared by install and install_bulk.
  void admit(SpatialAlarm& alarm);

  std::vector<SpatialAlarm> alarms_;     // slot order (install order)
  std::vector<IdSlot> slot_of_;          // AlarmId -> slot (kNoSlot = absent)
  std::size_t rtree_node_capacity_;
  index::RStarTree tree_;
  std::unordered_set<std::uint64_t> spent_;
};

/// Generates the paper's default workload. Targets are uniform over
/// `universe`; ids are dense [0, alarm_count).
std::vector<SpatialAlarm> generate_alarm_workload(
    const AlarmWorkloadConfig& config, const geo::Rect& universe, Rng& rng);

}  // namespace salarm::alarms
