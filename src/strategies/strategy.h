// Processing-strategy interface.
//
// A strategy models the client side of the distributed protocol for one
// run: the monitoring logic executed on every trace tick (whose work is
// charged to the client energy counters) and the decision of when to
// contact the server (whose work the Server charges to the server
// counters). All server contact goes through a net::ClientLink — the
// reliable endpoint over the (possibly faulty) channel — so every
// strategy transparently survives loss, reordering, duplication and
// outages (DESIGN.md §9). A grant is one sim::Server call passed to
// ClientLink::request, which runs it on the owning shard; nullopt just
// means "no grant", and a grantless client reports every tick, which is
// always sound. The simulation engine instantiates one strategy per run and
// calls on_tick for every subscriber on every tick.
#pragma once

#include <cstdint>
#include <string_view>

#include "alarms/spatial_alarm.h"
#include "mobility/trace.h"
#include "net/link.h"

namespace salarm::strategies {

class ProcessingStrategy {
 public:
  virtual ~ProcessingStrategy() = default;

  virtual std::string_view name() const = 0;

  /// Called once per subscriber before the first tick, with the initial
  /// position sample (tick 0). Strategies typically perform their initial
  /// server contact here.
  virtual void initialize(alarms::SubscriberId s,
                          const mobility::VehicleSample& sample) = 0;

  /// Called for every subscriber on every tick >= 1 with the fresh sample.
  virtual void on_tick(alarms::SubscriberId s,
                       const mobility::VehicleSample& sample,
                       std::uint64_t tick) = 0;
};

}  // namespace salarm::strategies
