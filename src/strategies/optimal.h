// OPT — the resource-oblivious upper bound (paper §4 intro, §5).
//
// The server pushes every relevant alarm intersecting the subscriber's
// current grid cell to the client, which evaluates all of them locally on
// every tick and contacts the server only when an alarm actually fires or
// when it crosses into a new cell (to fetch that cell's alarms). Fewest
// upstream messages of any approach, at maximal downstream bandwidth and
// client energy — the paper uses it to bound what distribution can achieve
// when client resources are unconstrained.
#pragma once

#include <optional>
#include <vector>

#include "strategies/strategy.h"

namespace salarm::strategies {

class OptimalStrategy final : public ProcessingStrategy {
 public:
  explicit OptimalStrategy(net::ClientLink& link);

  std::string_view name() const override { return "OPT"; }

  void initialize(alarms::SubscriberId s,
                  const mobility::VehicleSample& sample) override;
  void on_tick(alarms::SubscriberId s, const mobility::VehicleSample& sample,
               std::uint64_t tick) override;

 private:
  struct ClientState {
    geo::Rect cell{geo::Point{}, geo::Point{}};
    /// Local copies of the pushed alarms (id + region), pruned as they
    /// fire.
    std::vector<std::pair<alarms::AlarmId, geo::Rect>> alarms;
  };

  void fetch_cell(alarms::SubscriberId s, geo::Point position);

  net::ClientLink& link_;
  /// nullopt = no alarm list held (initial state, lost push, or revoked by
  /// carrier loss): the client reports every tick and retries the fetch —
  /// server-side evaluation covers it meanwhile, so accuracy holds.
  std::vector<std::optional<ClientState>> clients_;
};

}  // namespace salarm::strategies
