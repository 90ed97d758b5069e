// Ground-truth trigger oracle.
//
// The paper determines "the sequence of alarms to be triggered ... by a
// very high frequency trace of the motion pattern of the vehicles". The
// oracle replays the identical trace and evaluates every subscriber
// position of every tick against the full relevant alarm set, producing
// the reference trigger sequence each strategy must reproduce exactly
// (100% accuracy requirement).
//
// Each tick runs in three steps. The calling thread steps the trace and
// applies churn (serial). Fixed 512-subscriber chunks are then probed in
// parallel on a cluster::ParallelTickExecutor sized min(usable cores,
// chunks): each task runs the read-only AlarmStore::probe_position into
// buffers sized by the calling thread and counts node accesses per chunk,
// allocating nothing. Finally the calling thread merges the chunks in
// subscriber order, marking each fired pair spent and logging it. Triggers
// are one-shot per (alarm, subscriber) and every subscriber is probed once
// per tick, so no probe can observe another probe's spend: the events
// (in (tick, subscriber, visit) order) and the node-access total are
// bit-identical to a serial process_position loop at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "alarms/alarm_store.h"
#include "mobility/position_source.h"

namespace salarm::sim {

/// Computes the ground-truth trigger events for `ticks` ticks (tick 0 =
/// initial positions). The source is reset before and left at the end
/// position afterwards; the store's trigger state is reset before and
/// after (callers reset the node-access counter).
std::vector<alarms::TriggerEvent> ground_truth_triggers(
    mobility::PositionSource& source, alarms::AlarmStore& store,
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
