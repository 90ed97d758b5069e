#include "strategies/rect_region_strategy.h"

#include "common/error.h"

namespace salarm::strategies {

RectRegionStrategy::RectRegionStrategy(net::ClientLink& link,
                                       saferegion::MotionModel model,
                                       saferegion::MwpsrOptions options)
    : link_(link), model_(model), options_(options),
      regions_(link.subscriber_count()) {}

void RectRegionStrategy::report_and_refresh(
    alarms::SubscriberId s, const mobility::VehicleSample& sample,
    std::uint64_t tick) {
  (void)link_.report(s, sample.pos, tick);
  const auto region = link_.request(s, sample.pos, [&](sim::Server& server) {
    return server.compute_rect_region(s, sample.pos, sample.heading, model_,
                                      options_);
  });
  // nullopt: the response was lost or the client is in an outage. The
  // previous region (if any) is still sound; without one the client
  // reports again next tick.
  if (region.has_value()) regions_[s] = region->rect;
}

void RectRegionStrategy::initialize(alarms::SubscriberId s,
                                    const mobility::VehicleSample& sample) {
  report_and_refresh(s, sample, 0);
}

void RectRegionStrategy::on_tick(alarms::SubscriberId s,
                                 const mobility::VehicleSample& sample,
                                 std::uint64_t tick) {
  auto& region = regions_[s];
  // Invalidation pushes (dynamics tier) and carrier-loss revokes (net
  // tier): rect grants only ever receive revokes — drop the region before
  // the containment decision below, forcing a report this very tick.
  for (const auto& push : link_.take_invalidations(s)) {
    (void)push;
    ++link_.metrics().client_check_ops;
    region.reset();
  }
  // One rectangle containment test per tick. Closed containment: the
  // region may legally share boundary with alarm regions (triggers are
  // open-interior) and with the grid cell, so a subscriber riding a cell
  // or alarm edge is still safe.
  auto& metrics = link_.metrics();
  ++metrics.client_checks;
  ++metrics.client_check_ops;
  if (region.has_value() && region->contains(sample.pos)) return;
  report_and_refresh(s, sample, tick);
}

}  // namespace salarm::strategies
