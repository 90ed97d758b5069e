// Deterministic alarm-churn workload (DESIGN.md §8).
//
// Generates a timed sequence of install / remove / TTL-expiry events over
// the simulation's tick range, entirely up front and entirely from an
// explicitly seeded Rng, so the identical timeline can be replayed against
// every strategy, against the ground-truth oracle, and against the sharded
// tier at any thread count. New alarms draw their geometry and scope from
// the same distributions as the static workload generator
// (alarms/generate_alarm_workload); removals pick uniformly among the
// alarms live at that tick; half of all installs carry a TTL that expires
// into a scheduled removal.
//
// Ids are fresh and monotonically increasing (no reuse), starting one past
// the largest initial id — the sparse-id AlarmStore paths introduced for
// the cluster tier carry the rest.
#pragma once

#include <cstdint>
#include <vector>

#include "alarms/alarm_store.h"
#include "alarms/spatial_alarm.h"
#include "common/function_ref.h"
#include "common/rng.h"
#include "geometry/rect.h"

namespace salarm::dynamics {

/// Knobs of the churn workload. Rates are expected events per tick; the
/// fractional part is resolved by a Bernoulli draw, so e.g. 0.25 installs
/// one alarm every ~4 ticks.
struct ChurnConfig {
  double installs_per_tick = 0.5;
  double removes_per_tick = 0.25;
  /// TTL of the installs that carry one, drawn from [lo, hi] ticks.
  std::uint64_t ttl_ticks_lo = 30;
  std::uint64_t ttl_ticks_hi = 120;
  /// Geometry/scope distributions, mirroring AlarmWorkloadConfig.
  double region_side_lo = alarms::kRegionSideLo;
  double region_side_hi = alarms::kRegionSideHi;
  double public_fraction = 0.10;
  /// Owner / subscriber ids are drawn from [0, subscriber_count).
  std::size_t subscriber_count = 1;
};

/// One timeline entry. Removals carry only the id; installs carry the full
/// alarm definition. TTL expiries appear as ordinary removals at their
/// expiry tick (kind() distinguishes them only for reporting).
struct ChurnEvent {
  enum class Kind : std::uint8_t { kInstall = 0, kRemove = 1, kExpire = 2 };

  std::uint64_t tick = 0;
  Kind kind = Kind::kInstall;
  alarms::AlarmId id = 0;
  alarms::SpatialAlarm alarm;  ///< meaningful for kInstall only
};

/// Precomputed, replayable churn timeline. Construction is the only
/// stochastic step; replay is a cursor walk. Events within one tick are
/// ordered expiries → removals → installs, and the whole timeline is
/// non-decreasing in tick.
class AlarmScheduler {
 public:
  /// Builds the timeline for ticks [1, ticks) against the given initial
  /// alarm set (tick 0 is the static initialization tick and never churns).
  AlarmScheduler(const ChurnConfig& config, const geo::Rect& universe,
                 const std::vector<alarms::SpatialAlarm>& initial_alarms,
                 std::uint64_t ticks, std::uint64_t seed);

  const std::vector<ChurnEvent>& timeline() const { return events_; }

  /// Rewinds the replay cursor to the start of the timeline.
  void reset() { cursor_ = 0; }

  /// Visits every event scheduled for `tick`, in timeline order. Ticks
  /// must be consumed in strictly increasing order between resets.
  void for_each_due(std::uint64_t tick,
                    FunctionRef<void(const ChurnEvent&)> fn);

  /// First id the scheduler allocates (one past the largest initial id).
  alarms::AlarmId first_new_id() const { return first_new_id_; }

 private:
  std::vector<ChurnEvent> events_;
  std::size_t cursor_ = 0;
  std::uint64_t last_tick_ = 0;
  alarms::AlarmId first_new_id_ = 0;
};

}  // namespace salarm::dynamics
