#include "strategies/safe_period.h"

#include <cmath>
#include <limits>

namespace salarm::strategies {

SafePeriodStrategy::SafePeriodStrategy(net::ClientLink& link,
                                       double max_speed_mps,
                                       double tick_seconds)
    : link_(link),
      max_speed_mps_(max_speed_mps),
      tick_seconds_(tick_seconds),
      next_report_s_(link.subscriber_count(), 0.0) {}

void SafePeriodStrategy::report(alarms::SubscriberId s, geo::Point position,
                                std::uint64_t tick) {
  (void)link_.report(s, position, tick);
  const auto period = link_.request(s, position, [&](sim::Server& server) {
    return server.compute_safe_period(s, position, max_speed_mps_,
                                      tick_seconds_);
  });
  const double now = static_cast<double>(tick) * tick_seconds_;
  if (!period.has_value()) {
    // Grant lost in flight or client disconnected: no safe period held, so
    // report again next tick.
    next_report_s_[s] = now;
    return;
  }
  next_report_s_[s] = std::isinf(*period)
                          ? std::numeric_limits<double>::infinity()
                          : now + *period;
}

void SafePeriodStrategy::initialize(alarms::SubscriberId s,
                                    const mobility::VehicleSample& sample) {
  report(s, sample.pos, 0);
}

void SafePeriodStrategy::on_tick(alarms::SubscriberId s,
                                 const mobility::VehicleSample& sample,
                                 std::uint64_t tick) {
  const double now = static_cast<double>(tick) * tick_seconds_;
  // Invalidation pushes (dynamics tier) and carrier-loss revokes (net
  // tier): a revoke ends the safe period immediately, forcing a report
  // this very tick.
  for (const auto& push : link_.take_invalidations(s)) {
    (void)push;  // safe-period grants only ever receive revokes
    ++link_.metrics().client_check_ops;
    next_report_s_[s] = now;
  }
  if (now < next_report_s_[s]) return;  // still inside the safe period
  report(s, sample.pos, tick);
}

}  // namespace salarm::strategies
