// MWPSR — distributed rectangular safe-region processing (paper §3).
//
// The client monitors its position against a rectangular safe region with
// one containment test per tick (charged to the client energy model). When
// it exits the region it reports; the server evaluates the position against
// the alarm index (alarm processing) and ships a fresh maximum weighted
// perimeter rectangle (safe region computation + downstream bytes).
//
// The non-weighted variant of Figure 4 is the same strategy with
// MwpsrOptions::weighted = false.
//
// Fault tolerance comes from the link, not the strategy: a lost region
// response (ClientLink::request -> nullopt) leaves the client with its
// previous — still sound — region, or none, in which case it reports every
// tick until a response gets through. bench/robustness_loss reproduces the
// old *_with_loss figure purely via net::ChannelConfig::downlink_loss.
#pragma once

#include <optional>
#include <vector>

#include "saferegion/motion_model.h"
#include "saferegion/mwpsr.h"
#include "strategies/strategy.h"

namespace salarm::strategies {

class RectRegionStrategy final : public ProcessingStrategy {
 public:
  RectRegionStrategy(net::ClientLink& link, saferegion::MotionModel model,
                     saferegion::MwpsrOptions options = {});

  std::string_view name() const override {
    return options_.weighted ? "MWPSR" : "RECT";
  }

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
  saferegion::MwpsrOptions options_;
  std::vector<std::optional<geo::Rect>> regions_;
};

}  // namespace salarm::strategies
