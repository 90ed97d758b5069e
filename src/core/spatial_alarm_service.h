// SpatialAlarmService — the library's user-facing server API.
//
// This is the facade a deployment embeds on the alarm-processing server:
// install/uninstall alarms, process client position reports, and get back
// (a) the alarms that fired and (b) the encoded safe-region message to ship
// to the client. The matching client half is ClientMonitor
// (client_monitor.h), which consumes those messages and tells the device
// when it must next contact the server.
//
//   SpatialAlarmService service(config);
//   service.install(...);
//   auto result = service.process_update(subscriber, pos, heading, t);
//   // send result.safe_region_message to the client
//
// The facade keeps the alarm store, ids and input checks; every report is
// processed by the same per-shard engine (sim::Server) that the simulation
// runs, so probes, window queries, MWPSR and the pyramid build exist once.
// The examples/ and the integration tests exercise it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "alarms/alarm_store.h"
#include "grid/grid_overlay.h"
#include "saferegion/motion_model.h"
#include "saferegion/pyramid.h"
#include "sim/metrics.h"
#include "sim/server.h"

namespace salarm::core {

/// Which safe-region representation a client receives — the knob for
/// device heterogeneity (paper §2.1): weak clients get rectangles, strong
/// clients get pyramid bitmaps of a height they choose.
enum class RegionKind : std::uint8_t { kRect, kPyramid };

class SpatialAlarmService {
 public:
  struct Config {
    geo::Rect universe{geo::Point{0, 0}, geo::Point{32000, 32000}};
    /// Grid cell area in m² (paper default 2.5 km²).
    double grid_cell_area_sqm = 2.5e6;
    saferegion::PyramidConfig pyramid{};
  };

  explicit SpatialAlarmService(const Config& config);
  // The engine holds references to this object's store, grid and metrics.
  SpatialAlarmService(const SpatialAlarmService&) = delete;
  SpatialAlarmService& operator=(const SpatialAlarmService&) = delete;

  /// Installs an alarm and returns its id. Ids are dense and assigned by
  /// the service. The region must have positive area and lie inside the
  /// universe.
  alarms::AlarmId install(alarms::AlarmScope scope,
                          alarms::SubscriberId owner, const geo::Rect& region,
                          std::vector<alarms::SubscriberId> subscribers = {});

  /// Uninstalls an alarm; returns false when absent.
  bool uninstall(alarms::AlarmId id);

  /// Moves an alarm's region (moving-target alarms): the alarm keeps its
  /// id and per-subscriber trigger state; subscribers pick up the change
  /// on their next safe-region refresh. The new region must lie inside the
  /// universe.
  void move(alarms::AlarmId id, const geo::Rect& new_region);

  std::size_t alarm_count() const { return store_.size(); }

  struct UpdateResult {
    /// Alarms fired by this update (now spent for the subscriber).
    std::vector<alarms::AlarmId> fired;
    /// Encoded safe-region message for the client (rect or pyramid wire
    /// format per `kind`), ready to transmit; feed to ClientMonitor.
    std::vector<std::uint8_t> safe_region_message;
  };

  /// Processes one client report: evaluates alarms, computes a fresh safe
  /// region of the requested kind, and returns both. `heading` is the
  /// client's direction of motion (radians; only used for kRect).
  UpdateResult process_update(alarms::SubscriberId subscriber,
                              geo::Point position, double heading,
                              std::uint64_t tick,
                              RegionKind kind = RegionKind::kRect);

  /// Trigger history (every fired (alarm, subscriber, tick)).
  const std::vector<alarms::TriggerEvent>& trigger_log() const {
    return server_.trigger_log();
  }

 private:
  /// Steady-motion model for MWPSR: the paper's best setting, y=1, z=32.
  static constexpr double kMotionY = 1.0;
  static constexpr int kMotionZ = 32;

  Config config_;
  grid::GridOverlay grid_;
  alarms::AlarmStore store_;
  saferegion::MotionModel motion_{kMotionY, kMotionZ};
  sim::Metrics metrics_;
  sim::Server server_;
  alarms::AlarmId next_id_ = 0;
};

}  // namespace salarm::core
