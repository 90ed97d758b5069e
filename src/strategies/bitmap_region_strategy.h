// GBSR / PBSR — distributed bitmap safe-region processing (paper §4).
//
// The client holds the pyramid bitmap of its current base grid cell and
// performs one pyramid descent per tick (cost = levels visited). Protocol,
// per paper §4.2:
//
//  * Leaving the base cell — report; the server builds and ships the new
//    cell's bitmap (the only *scheduled* recomputation point).
//  * Inside the base cell but on an unsafe (0) cell — report the position
//    so the server can evaluate alarms; no recomputation and no downstream
//    traffic unless an alarm actually fires.
//  * An alarm fires while the subscriber stays in the base cell — the
//    alarm is now spent for this subscriber, so the server refreshes the
//    bitmap "by considering the triggered alarm to be a part of the safe
//    region" and ships the (now more permissive) bitmap.
//
// GBSR is this strategy with PyramidConfig::height = 1. Fault tolerance
// (DESIGN.md §9): a lost bitmap response leaves the previous — still sound
// — bitmap in place, or none, in which case the client reports every tick;
// a revoke push (carrier loss) drops the bitmap outright.
#pragma once

#include <optional>
#include <vector>

#include "saferegion/pyramid.h"
#include "strategies/strategy.h"

namespace salarm::strategies {

class BitmapRegionStrategy final : public ProcessingStrategy {
 public:
  /// `use_public_cache` builds every grant from the server's precomputed
  /// public-alarm bitmaps (paper §4.2).
  BitmapRegionStrategy(net::ClientLink& link,
                       saferegion::PyramidConfig config,
                       bool use_public_cache = false);

  std::string_view name() const override {
    return config_.height == 1 ? "GBSR" : "PBSR";
  }

  void initialize(alarms::SubscriberId s,
                  const mobility::VehicleSample& sample) override;
  void on_tick(alarms::SubscriberId s, const mobility::VehicleSample& sample,
               std::uint64_t tick) override;

 private:
  void refresh(alarms::SubscriberId s, geo::Point position);

  net::ClientLink& link_;
  saferegion::PyramidConfig config_;
  bool use_public_cache_;
  std::vector<std::optional<saferegion::PyramidBitmap>> bitmaps_;
};

}  // namespace salarm::strategies
