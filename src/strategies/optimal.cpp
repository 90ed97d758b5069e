#include "strategies/optimal.h"

#include <algorithm>

namespace salarm::strategies {

OptimalStrategy::OptimalStrategy(net::ClientLink& link)
    : link_(link), clients_(link.subscriber_count()) {}

void OptimalStrategy::fetch_cell(alarms::SubscriberId s,
                                 geo::Point position) {
  auto pushed = link_.request(s, position, [&](sim::Server& server) {
    return server.push_alarms(s, position);
  });
  // nullopt: the alarm push was lost or the client is in an outage. Holding
  // no list means report-every-tick until a fetch succeeds, during which
  // the server evaluates reports itself — no trigger can be missed.
  if (!pushed.has_value()) {
    clients_[s].reset();
    return;
  }
  ClientState state;
  state.cell = link_.grid().cell_rect(link_.grid().cell_of(position));
  for (const alarms::SpatialAlarm* a : *pushed) {
    state.alarms.emplace_back(a->id, a->region);
  }
  clients_[s] = std::move(state);
}

void OptimalStrategy::initialize(alarms::SubscriberId s,
                                 const mobility::VehicleSample& sample) {
  (void)link_.report(s, sample.pos, 0);
  fetch_cell(s, sample.pos);
}

void OptimalStrategy::on_tick(alarms::SubscriberId s,
                              const mobility::VehicleSample& sample,
                              std::uint64_t tick) {
  auto& state = clients_[s];
  auto& metrics = link_.metrics();

  // Invalidation pushes. An install (dynamics tier) appends the new alarm
  // to the local list before the evaluation below, so an alarm installed
  // on top of the client fires this very tick; a revoke (carrier loss, net
  // tier) carries no alarm and voids the whole list instead.
  for (const auto& push : link_.take_invalidations(s)) {
    ++metrics.client_check_ops;
    if (!state.has_value()) continue;
    if (push.action == dynamics::InvalidationAction::kAlarmAdd) {
      state->alarms.emplace_back(push.alarm, push.region);
    } else {
      state.reset();
    }
  }

  // Cell membership is part of the per-tick client work.
  ++metrics.client_checks;
  ++metrics.client_check_ops;
  if (!state.has_value() || !state->cell.contains(sample.pos)) {
    (void)link_.report(s, sample.pos, tick);
    fetch_cell(s, sample.pos);
    return;
  }

  // Full client-side evaluation: one test per pushed alarm.
  metrics.client_check_ops += state->alarms.size();
  std::vector<alarms::AlarmId> hits;
  for (const auto& [id, region] : state->alarms) {
    if (region.interior_contains(sample.pos)) hits.push_back(id);
  }
  if (hits.empty()) return;

  // Spatial constraints met: report; the server fires and spends the
  // alarms. Every hit is pruned locally, fired or not — a hit the server
  // did not fire means the alarm was removed (or already spent) server-
  // side, and keeping the stale copy would re-report every tick. On static
  // runs hits and fired coincide exactly.
  (void)link_.report(s, sample.pos, tick);
  std::erase_if(state->alarms, [&](const auto& entry) {
    return std::find(hits.begin(), hits.end(), entry.first) != hits.end();
  });
}

}  // namespace salarm::strategies
