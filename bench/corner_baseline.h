// Corner-candidate rectangular safe region — the Hu et al. [10]-style
// baseline the paper improves upon, and the strategy that runs it.
//
// The paper (§3, §6) claims its clamped candidate construction beats "the
// approach presented in [10]", which "leads to alarm misses and erroneous
// safe regions" when alarm regions overlap each other or intersect the
// coordinate axes through the subscriber position. This module implements
// that baseline faithfully enough to reproduce the failure: each alarm
// contributes only its geometric nearest corner, assigned to the quadrant
// that corner lies in — with no clamping to the quadrant axes.
//
// Consequence: an alarm region that straddles an axis (its nearest corner
// lies on the far side, or the constraint it imposes on the straddled
// quadrant pair is invisible from the corner's own quadrant) is not
// constrained correctly, and the resulting "safe" rectangle can overlap
// the alarm's interior — a subscriber inside it would miss the trigger.
// The ablation bench (abl_corner_baseline) and the property tests
// demonstrate both failure modes on random workloads.
//
// This baseline exists for comparison only, so it lives with the bench:
// the library's strategies are all oracle-exact, and production code uses
// saferegion::compute_mwpsr (saferegion/mwpsr.h).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "saferegion/motion_model.h"
#include "saferegion/mwpsr.h"
#include "sim/simulation.h"
#include "strategies/strategy.h"

namespace salarm::bench {

/// Computes the corner-candidate baseline safe region. Same contract shape
/// as compute_mwpsr, but the result is NOT guaranteed sound: the returned
/// rectangle may overlap alarm interiors when alarm regions overlap or
/// straddle the axes through `position`.
saferegion::RectSafeRegion compute_corner_baseline(
    geo::Point position, double heading, const geo::Rect& cell,
    std::span<const geo::Rect> alarm_regions,
    const saferegion::MotionModel& model);

/// RectRegionStrategy's client protocol (drop the region on a revoke, one
/// containment test per tick, report on exit) with the corner-candidate
/// region as its grant. The grant runs on the owning shard's server through
/// ClientLink::request and charges what Server::compute_rect_region charges
/// for an MWPSR region: the window query's node accesses and the region's
/// ops as server_region_ops, one recompute, and the rect message bytes. It
/// is not entered in the server's session index, so online alarm installs
/// do not invalidate it: run it on static alarms.
class CornerBaselineStrategy final : public strategies::ProcessingStrategy {
 public:
  CornerBaselineStrategy(net::ClientLink& link,
                         saferegion::MotionModel model);

  std::string_view name() const override { return "RECT[10]"; }

  void initialize(alarms::SubscriberId s,
                  const mobility::VehicleSample& sample) override;
  void on_tick(alarms::SubscriberId s, const mobility::VehicleSample& sample,
               std::uint64_t tick) override;

 private:
  void report_and_refresh(alarms::SubscriberId s,
                          const mobility::VehicleSample& sample,
                          std::uint64_t tick);

  net::ClientLink& link_;
  saferegion::MotionModel model_;
  std::vector<std::optional<geo::Rect>> regions_;
};

/// Factory for Simulation::run.
sim::Simulation::StrategyFactory corner_baseline(
    saferegion::MotionModel model);

}  // namespace salarm::bench
