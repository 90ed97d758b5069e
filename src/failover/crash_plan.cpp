#include "failover/crash_plan.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace salarm::failover {

CrashPlan::CrashPlan(const FailoverConfig& config, std::size_t shard_count,
                     std::uint64_t ticks, std::uint64_t seed)
    : ticks_(ticks), windows_(shard_count) {
  SALARM_REQUIRE(config.crash_per_tick >= 0.0 && config.crash_per_tick < 1.0,
                 "crash probability must be in [0, 1)");
  SALARM_REQUIRE(
      config.crash_per_tick == 0.0 || config.crash_mean_down_ticks >= 1.0,
      "crashes need a mean downtime of at least one tick");
  SALARM_REQUIRE(config.checkpoint_interval_ticks >= 1,
                 "checkpoint interval must be at least one tick");
  Rng parent(seed);
  for (std::size_t i = 0; i < shard_count; ++i) {
    // One forked stream per shard, drawn fully up front: the windows are a
    // pure function of (seed, shard), matching FaultyChannel's per-
    // subscriber stream discipline.
    Rng stream = parent.fork();
    std::uint64_t t = 1;
    while (t < ticks && config.crash_per_tick > 0.0) {
      if (!stream.chance(config.crash_per_tick)) {
        ++t;
        continue;
      }
      // Exponential-ish downtime with the configured mean, shifted so
      // every crash loses at least one tick (same shape as the channel's
      // outage durations).
      const double u = stream.uniform(0.0, 1.0);
      const double extra = std::max(
          0.0, -(config.crash_mean_down_ticks - 1.0) * std::log1p(-u));
      const std::uint64_t duration =
          1 + static_cast<std::uint64_t>(std::llround(extra));
      const std::uint64_t end = std::min(t + duration, ticks);
      windows_[i].push_back(CrashWindow{t, end});
      // No crash draw on the recovery tick itself: a shard that just came
      // back serves at least one tick before it can crash again.
      t = end + 1;
    }
  }
  validate();
}

CrashPlan::CrashPlan(std::vector<std::vector<CrashWindow>> windows,
                     std::uint64_t ticks)
    : ticks_(ticks), windows_(std::move(windows)) {
  validate();
}

void CrashPlan::validate() {
  SALARM_REQUIRE(ticks_ >= 2, "crash plan needs at least two ticks");
  for (const auto& shard_windows : windows_) {
    std::uint64_t previous_end = 0;
    for (const CrashWindow& w : shard_windows) {
      SALARM_REQUIRE(w.begin >= 1, "crash windows start at tick 1 or later");
      SALARM_REQUIRE(w.end > w.begin, "crash window must be non-empty");
      SALARM_REQUIRE(w.end <= ticks_, "crash window exceeds the run");
      SALARM_REQUIRE(previous_end == 0 || w.begin > previous_end,
                     "crash windows must be sorted and non-adjacent");
      previous_end = w.end;
    }
  }
}

const CrashWindow* CrashPlan::window_covering(std::size_t shard,
                                              std::uint64_t tick) const {
  SALARM_REQUIRE(shard < windows_.size(), "no such shard in crash plan");
  const auto& ws = windows_[shard];
  // Last window with begin <= tick.
  const auto it = std::upper_bound(
      ws.begin(), ws.end(), tick,
      [](std::uint64_t t, const CrashWindow& w) { return t < w.begin; });
  if (it == ws.begin()) return nullptr;
  return &*std::prev(it);
}

bool CrashPlan::crashes_at(std::size_t shard, std::uint64_t tick) const {
  const CrashWindow* w = window_covering(shard, tick);
  return w != nullptr && w->begin == tick;
}

bool CrashPlan::recovers_at(std::size_t shard, std::uint64_t tick) const {
  if (tick == 0) return false;
  const CrashWindow* w = window_covering(shard, tick - 1);
  return w != nullptr && w->end == tick;
}

const std::vector<CrashWindow>& CrashPlan::windows(std::size_t shard) const {
  SALARM_REQUIRE(shard < windows_.size(), "no such shard in crash plan");
  return windows_[shard];
}

}  // namespace salarm::failover
