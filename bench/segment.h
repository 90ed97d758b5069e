// Line-segment geometry.
//
// The simulator and the paper both evaluate alarms at trace-tick
// granularity; between two ticks a fast vehicle can clip an alarm region's
// corner without either endpoint being inside ("corner cutting"). These
// helpers test the continuous motion segment against rectangles so the
// tick-granularity fidelity study (abl_tick_granularity) can measure how
// much the discretization hides. Only that study uses them, so they live
// with the bench (salarm_tests compiles them too).
#pragma once

#include <optional>

#include "geometry/point.h"
#include "geometry/rect.h"

namespace salarm::geo {

/// True when any point of the segment a->b lies strictly inside the
/// rectangle (interior intersection; touching edges/corners does not
/// count, matching the open-interior trigger semantics).
bool segment_intersects_interior(Point a, Point b, const Rect& rect);

/// The parameter interval [t_enter, t_exit] ⊆ [0, 1] for which
/// a + t·(b-a) lies inside the *closed* rectangle; empty when the segment
/// misses it.
std::optional<std::pair<double, double>> clip_segment(Point a, Point b,
                                                      const Rect& rect);

}  // namespace salarm::geo
