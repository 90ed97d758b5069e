// Ground-truth trigger oracle.
//
// The paper determines "the sequence of alarms to be triggered ... by a
// very high frequency trace of the motion pattern of the vehicles". The
// oracle replays the identical trace and evaluates every subscriber
// position of every tick against the full relevant alarm set, producing
// the reference trigger sequence each strategy must reproduce exactly
// (100% accuracy requirement).
//
// The oracle is a reference that shares no alarm-processing code with the
// server it scores. It reads the store's alarm set (AlarmStore::all())
// into a private table — id, region, a public flag and a sorted copy of
// the subscriber list per alarm — bucketed on a uniform grid over the
// source's extent, and keeps its own spent set. It never calls the
// store's probe, relevance or spend code and never touches the R*-tree,
// so the store's node-access counter moves only by what apply_churn's
// installs and removals cost.
//
// Each tick runs in three steps. The calling thread steps the trace and,
// under churn, applies the tick's churn and reconciles the table against
// the store's alarm set by (id, region, scope, subscribers) (serial).
// Fixed 512-subscriber chunks are then matched in parallel, one critical
// batch of the shared worker pool (ahead of the trace's prefetch): each
// task looks up its subscribers' grid cells and tests the open interior,
// the subscription and the spent set, read-only, into buffers sized by
// the calling thread, allocating nothing. Finally the calling thread
// merges the chunks in subscriber order, spending and logging each fired
// pair. Triggers are one-shot per (alarm, subscriber) and every subscriber
// is matched once per tick, so no match can observe another match's
// spend: the events come out in canonical (tick, subscriber, alarm) order
// at any thread count — the order cluster::ShardedServer's merged trigger
// log gives runs.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "alarms/alarm_store.h"
#include "mobility/position_source.h"

namespace salarm::sim {

/// Computes the ground-truth trigger events for `ticks` ticks (tick 0 =
/// initial positions), in (tick, subscriber, alarm) order. The source is
/// reset before and left at the end position afterwards; the store is
/// only read (its alarm set — the oracle keeps its own spent set).
std::vector<alarms::TriggerEvent> ground_truth_triggers(
    mobility::PositionSource& source, const alarms::AlarmStore& store,
    std::size_t ticks);

/// As above, but over a time-varying alarm set: `apply_churn(t, store)` is
/// invoked once per tick t >= 1, after the motion step and before the
/// positions of tick t are evaluated — the same ordering the live server
/// uses (churn is applied in the serial phase ahead of subscriber
/// processing), so an alarm installed on top of a subscriber fires that
/// very tick and a removed alarm can no longer fire. The store is left in
/// its end-of-trace state; callers that need the initial set back must
/// rewind it themselves.
std::vector<alarms::TriggerEvent> ground_truth_triggers(
    mobility::PositionSource& source, alarms::AlarmStore& store,
    std::size_t ticks,
    const std::function<void(std::size_t, alarms::AlarmStore&)>& apply_churn);

/// Compares a strategy's trigger log with the oracle's: both are sorted
/// and must match exactly (same (alarm, subscriber, tick) events).
struct AccuracyReport {
  std::size_t expected = 0;
  std::size_t observed = 0;
  std::size_t missed = 0;    ///< in oracle, not in strategy
  std::size_t spurious = 0;  ///< in strategy, not in oracle; or a repeat
  std::size_t late = 0;      ///< right pair, later tick

  bool perfect() const { return missed == 0 && spurious == 0 && late == 0; }
};

AccuracyReport compare_triggers(std::vector<alarms::TriggerEvent> expected,
                                std::vector<alarms::TriggerEvent> observed);

}  // namespace salarm::sim
