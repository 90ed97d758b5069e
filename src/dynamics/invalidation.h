// Safe-region invalidation protocol (DESIGN.md §8).
//
// The paper's alarms are installable and removable at runtime (§1, §5.1),
// which turns safe regions into a cache-coherence problem: a safe region
// computed *before* an alarm is installed can silently mask the new alarm
// for as long as the client stays inside it. The server therefore tracks
// every outstanding grant (dynamics/session_index.h) and, when a new alarm
// is installed, pushes an invalidation to each subscriber whose grant the
// alarm could violate. Removals need no push: a safe region stays *sound*
// when an alarm disappears (it is merely smaller than necessary) and is
// lazily re-widened at the client's next natural refresh.
//
// The push a grant receives depends on what the client holds:
//
//  * kRevoke    — rectangle and safe-period grants. The server cannot
//                 shrink them soundly (it does not know where inside the
//                 grant the client currently is), so it drops the grant;
//                 the client re-contacts the server on its next tick.
//  * kShrink    — pyramid-bitmap grants. The alarm's region is pushed and
//                 the client conservatively flips every overlapped safe
//                 node to unsafe (PyramidBitmap::mark_unsafe).
//  * kAlarmAdd  — client-side evaluation (OPT). The full alarm (region +
//                 message) is pushed and appended to the client's list.
#pragma once

#include <cstdint>
#include <string>

#include "alarms/spatial_alarm.h"
#include "geometry/rect.h"

namespace salarm::dynamics {

/// What kind of "stay silent" promise a client currently holds. Recorded
/// per subscriber in the SessionIndex together with a conservative
/// bounding box of the area the promise covers.
enum class GrantKind : std::uint8_t {
  kRect = 0,        ///< rectangular safe region (MWPSR)
  kPyramid = 1,     ///< pyramid bitmap over the client's grid cell
  kSafePeriod = 2,  ///< timed grant: silent until now + period
  kAlarmList = 3,   ///< client-side evaluation: alarm list of the cell
};

/// How the client must react to an invalidation push.
enum class InvalidationAction : std::uint8_t {
  kRevoke = 0,    ///< drop the grant and re-contact the server this tick
  kShrink = 1,    ///< mark the pushed region unsafe in the held bitmap
  kAlarmAdd = 2,  ///< append the pushed alarm to the client-side list
};

/// One server→client invalidation, delivered into the subscriber's mailbox
/// at the install tick and drained by the strategy at the top of its next
/// on_tick — i.e. *before* the client decides whether to stay silent, so
/// a new alarm can never be masked for even one tick.
struct InvalidationPush {
  InvalidationAction action = InvalidationAction::kRevoke;
  alarms::AlarmId alarm = 0;
  /// The newly installed alarm's region (the shrink mask for kShrink, the
  /// client-side region for kAlarmAdd; informational for kRevoke).
  geo::Rect region;
  /// Alarm content; non-empty only for kAlarmAdd — client-side evaluation
  /// must hold the message up front, mirroring push_alarms.
  std::string message;
};

}  // namespace salarm::dynamics
