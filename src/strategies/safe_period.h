// SP — safe-period baseline ([3], paper §1, §5).
//
// After each report the server grants the client a safe period
// t = dist(position, nearest relevant alarm region) / v_max: under the
// pessimistic worst-case assumption (straight-line travel at the system's
// maximum speed) the client cannot reach any alarm region before the
// period expires, so it stays silent until then. Because reports and the
// ground-truth oracle both operate at trace-tick granularity, the first
// tick at which a subscriber can possibly be inside an alarm region is the
// report tick itself — SP is tick-exact, at the cost of 2-3x the messages
// of the safe-region approaches (Figure 6(a)).
#pragma once

#include <vector>

#include "strategies/strategy.h"

namespace salarm::strategies {

class SafePeriodStrategy final : public ProcessingStrategy {
 public:
  /// `max_speed_mps` must be a hard bound on any subscriber's speed
  /// (see mobility::max_speed_bound) for the approach to be accurate.
  SafePeriodStrategy(net::ClientLink& link, double max_speed_mps,
                     double tick_seconds);

  std::string_view name() const override { return "SP"; }

  void initialize(alarms::SubscriberId s,
                  const mobility::VehicleSample& sample) override;
  void on_tick(alarms::SubscriberId s, const mobility::VehicleSample& sample,
               std::uint64_t tick) override;

 private:
  void report(alarms::SubscriberId s, geo::Point position,
              std::uint64_t tick);

  net::ClientLink& link_;
  double max_speed_mps_;
  double tick_seconds_;
  /// Next time (seconds) each subscriber must report; +inf when no
  /// relevant alarm remains. A lost period grant (net tier) leaves it at
  /// `now`, so the grantless client reports every tick — always sound.
  std::vector<double> next_report_s_;
};

}  // namespace salarm::strategies
