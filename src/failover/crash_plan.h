// Deterministic shard fault injection (DESIGN.md §10).
//
// A CrashPlan precomputes, from one seed, every downtime window of every
// shard over a run's tick range — before the first tick executes. Like the
// net tier's FaultyChannel, determinism comes from forked salarm::Rng
// streams: shard i's windows are a pure function of (seed, i), independent
// of thread count and of every other shard's draws. Precomputing (rather
// than drawing during the run) keeps the schedule immutable, so a run
// replays bit-identically. cluster::ShardedServer owns the plan and is its
// one reader: begin_failover_tick applies each tick's crashes and
// recoveries, and the client link and the tick pipeline ask the server,
// not the plan, whether a shard is down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace salarm::failover {

/// Crash and durability knobs of a failover-enabled run. A zero crash rate
/// (the default) schedules no windows: shards are immortal and only the
/// checkpoint cadence is exercised.
struct FailoverConfig {
  /// Probability that an up shard crashes on a given tick.
  double crash_per_tick = 0.0;
  /// Mean downtime of a crash in ticks (exponential-ish, >= 1).
  double crash_mean_down_ticks = 4.0;
  /// Ticks between periodic shard checkpoints (>= 1); a baseline
  /// checkpoint is also taken when failover is enabled (tick 0).
  std::uint64_t checkpoint_interval_ticks = 30;
  /// Recovery mode: with a journal, post-checkpoint mutations are replayed
  /// from the shard's append-only log; without one, recovery falls back to
  /// the upstream churn redo ledger plus client re-registration
  /// (DESIGN.md §10).
  bool journal = true;

  /// True when crashes can actually occur.
  bool faulty() const { return crash_per_tick > 0.0; }
};

/// One downtime window [begin, end): the shard's volatile state is lost
/// before tick `begin` is processed and restored before tick `end` is
/// processed. A window clipped by the end of the run (end == ticks) is
/// recovered by the run loop after the last tick, before buffered reports
/// flush.
struct CrashWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Immutable, precomputed crash schedule for one run.
class CrashPlan {
 public:
  /// Draws the windows for `shard_count` shards over ticks [1, ticks)
  /// from the config's crash rate. A shard never crashes on the tick it
  /// recovers (the next crash draw starts the tick after).
  CrashPlan(const FailoverConfig& config, std::size_t shard_count,
            std::uint64_t ticks, std::uint64_t seed);

  /// Explicit schedule (tests): per-shard windows, each list sorted,
  /// non-overlapping and non-adjacent, with begin >= 1 and end > begin.
  /// Windows may extend to `ticks` (down at end of run) but not beyond.
  CrashPlan(std::vector<std::vector<CrashWindow>> windows,
            std::uint64_t ticks);

  std::size_t shard_count() const { return windows_.size(); }

  /// Whether the shard crashes at exactly this tick (window begin).
  bool crashes_at(std::size_t shard, std::uint64_t tick) const;
  /// Whether the shard recovers at exactly this tick (window end).
  bool recovers_at(std::size_t shard, std::uint64_t tick) const;

  const std::vector<CrashWindow>& windows(std::size_t shard) const;

 private:
  const CrashWindow* window_covering(std::size_t shard,
                                     std::uint64_t tick) const;
  void validate();

  std::uint64_t ticks_ = 0;
  std::vector<std::vector<CrashWindow>> windows_;
};

}  // namespace salarm::failover
