#include "strategies/bitmap_region_strategy.h"

#include "common/error.h"

namespace salarm::strategies {

BitmapRegionStrategy::BitmapRegionStrategy(net::ClientLink& link,
                                           saferegion::PyramidConfig config,
                                           bool use_public_cache)
    : link_(link),
      config_(config),
      use_public_cache_(use_public_cache),
      bitmaps_(link.subscriber_count()) {}

void BitmapRegionStrategy::refresh(alarms::SubscriberId s,
                                   geo::Point position) {
  auto bitmap = link_.request(s, position, [&](sim::Server& server) {
    return server.compute_pyramid_region(s, position, config_,
                                         use_public_cache_);
  });
  // nullopt: the response was lost or the client is in an outage. The
  // previous (still sound) bitmap — or none — stays in place, and the
  // client reports again next tick.
  if (bitmap.has_value()) bitmaps_[s] = std::move(*bitmap);
}

void BitmapRegionStrategy::initialize(alarms::SubscriberId s,
                                      const mobility::VehicleSample& sample) {
  (void)link_.report(s, sample.pos, 0);
  refresh(s, sample.pos);
}

void BitmapRegionStrategy::on_tick(alarms::SubscriberId s,
                                   const mobility::VehicleSample& sample,
                                   std::uint64_t tick) {
  auto& bitmap = bitmaps_[s];
  auto& metrics = link_.metrics();

  // Invalidation pushes: an install shrink conservatively marks the new
  // alarm's region unsafe in the held bitmap before the descent below; a
  // revoke (carrier loss, net tier) voids the bitmap outright.
  for (const auto& push : link_.take_invalidations(s)) {
    ++metrics.client_check_ops;
    if (!bitmap.has_value()) continue;
    if (push.action == dynamics::InvalidationAction::kShrink) {
      bitmap->mark_unsafe(push.region);
    } else {
      bitmap.reset();
    }
  }

  // Base-cell exit: report and fetch the new cell's bitmap. The cell
  // membership test is part of the client's per-tick containment work.
  ++metrics.client_checks;
  ++metrics.client_check_ops;
  if (!bitmap.has_value() || !bitmap->cell().contains(sample.pos)) {
    (void)link_.report(s, sample.pos, tick);
    refresh(s, sample.pos);
    return;
  }

  // Pyramid descent; cost = levels visited.
  const auto containment = bitmap->locate(sample.pos);
  metrics.client_check_ops += static_cast<std::uint64_t>(containment.levels);
  if (containment.safe) return;

  // Outside the safe region but inside the base cell: report so the server
  // evaluates alarms. Only an actual trigger changes the safe region.
  const auto fired = link_.report(s, sample.pos, tick);
  if (!fired.empty()) refresh(s, sample.pos);
}

}  // namespace salarm::strategies
