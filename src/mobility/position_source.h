// PositionSource — the simulation engine's view of mobility.
//
// Anything that can replay a deterministic per-tick stream of vehicle
// samples can drive the simulator: the road-network trace generator (the
// paper's workload) or a recorded/imported trace here, and the bench's
// random-waypoint model (the classic synthetic alternative). Determinism
// contract: after reset(), the sequence of samples() produced by
// successive step() calls is identical on every replay — the simulator
// runs every strategy against the identical motion pattern.
#pragma once

#include <vector>

#include "geometry/rect.h"
#include "mobility/trace.h"

namespace salarm::mobility {

class PositionSource {
 public:
  virtual ~PositionSource() = default;

  /// Rewinds to tick 0 (the initial positions).
  virtual void reset() = 0;

  /// Advances all vehicles by one tick. Behaviour past the natural end of
  /// a finite source (a recorded trace) is a precondition violation.
  virtual void step() = 0;

  /// Samples after the most recent step() (or the initial positions),
  /// indexed by VehicleId.
  virtual const std::vector<VehicleSample>& samples() const = 0;

  virtual std::size_t vehicle_count() const = 0;
  virtual double tick_seconds() const = 0;

  /// A rectangle all positions stay within (defines the required grid
  /// universe).
  virtual geo::Rect extent() const = 0;
};

/// Replays a RecordedTrace (generated, or imported via trace_io) as a
/// PositionSource, making any real-world trace a first-class simulator
/// workload.
class RecordedTraceSource final : public PositionSource {
 public:
  /// The trace must outlive the source.
  explicit RecordedTraceSource(const RecordedTrace& trace);

  void reset() override;
  void step() override;
  const std::vector<VehicleSample>& samples() const override {
    return current_;
  }
  std::size_t vehicle_count() const override {
    return trace_.vehicle_count();
  }
  double tick_seconds() const override { return trace_.tick_seconds(); }
  geo::Rect extent() const override { return extent_; }

  std::size_t tick_index() const { return tick_; }
  std::size_t tick_count() const { return trace_.tick_count(); }

 private:
  const RecordedTrace& trace_;
  geo::Rect extent_;
  std::vector<VehicleSample> current_;
  std::size_t tick_ = 0;
};

}  // namespace salarm::mobility
