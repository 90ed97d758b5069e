// Client/server wire formats.
//
// The paper's downstream-bandwidth metric (Figure 6(b)) depends on the
// exact size of what the server ships to each client: a rectangle for
// MWPSR, a pyramid bitmap for GBSR/PBSR, the full relevant-alarm list for
// OPT, a scalar for the safe-period baseline. These encodings define those
// sizes and are byte-exact round-trippable (the client examples decode
// them), so the bandwidth numbers are grounded in real payloads rather
// than estimates.
//
// Encoding conventions: little-endian fixed-width integers, IEEE-754
// doubles, one leading message-type byte. Each layout is defined once, by
// a field list in wire_format.cpp that drives encode, decode<M> and
// encoded_size alike, so sizes cannot drift from the bytes. Every
// MessageType has one struct and one field list, the shard handoff
// included.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "alarms/spatial_alarm.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "saferegion/pyramid.h"

namespace salarm::wire {

enum class MessageType : std::uint8_t {
  kPositionUpdate = 1,   ///< client -> server
  kRectSafeRegion = 2,   ///< server -> client (MWPSR)
  kPyramidSafeRegion = 3,///< server -> client (GBSR/PBSR)
  kAlarmPush = 4,        ///< server -> client (OPT)
  kSafePeriod = 5,       ///< server -> client (SP baseline)
  kTriggerNotice = 6,    ///< server -> client (all strategies)
  kShardHandoff = 7,     ///< shard -> shard (cluster session transfer)
  kInvalidation = 8,     ///< server -> client (grant invalidation push)
  kAck = 9,              ///< either direction (reliability protocol)
  kShardCheckpoint = 10, ///< shard -> durable store (failover tier)
  kJournalRecord = 11,   ///< shard -> durable log (failover tier)
};

/// Client position report. `seq` is the per-session uplink sequence number
/// (DESIGN.md §9): the server ACKs it and suppresses duplicate deliveries,
/// and reordered reports are re-sequenced by it.
struct PositionUpdate {
  alarms::SubscriberId subscriber = 0;
  geo::Point position;
  double time_s = 0.0;
  std::uint32_t seq = 0;
};

/// Rectangular safe region (MWPSR).
struct RectSafeRegionMsg {
  geo::Rect rect{geo::Point{}, geo::Point{}};
};

/// Pyramid bitmap safe region (GBSR/PBSR): base-cell geometry, pyramid
/// parameters and the bit stream.
struct PyramidSafeRegionMsg {
  geo::Rect cell{geo::Point{}, geo::Point{}};
  saferegion::PyramidConfig config;
  std::uint32_t bit_count = 0;
  std::vector<std::uint8_t> bits;

  saferegion::PyramidBitmap decode() const;
  static PyramidSafeRegionMsg from(const saferegion::PyramidBitmap& bitmap);
};

/// Complete relevant-alarm push (OPT): full alarm descriptors. The client
/// evaluates alarms locally, so it must receive the alert content up front
/// — the safe-region approaches keep that content server-side and ship it
/// only inside trigger notices.
struct AlarmPushMsg {
  struct Item {
    alarms::AlarmId id = 0;
    geo::Rect region{geo::Point{}, geo::Point{}};
    std::string message;
  };
  geo::Rect cell{geo::Point{}, geo::Point{}};
  std::vector<Item> alarms;
};

/// Safe-period grant (SP baseline).
struct SafePeriodMsg {
  double period_s = 0.0;
};

/// Alarm trigger notification, carrying the alert content.
struct TriggerNoticeMsg {
  alarms::AlarmId alarm = 0;
  std::string message;
};

/// Inter-shard session handoff (cluster tier, DESIGN.md §7): the
/// subscriber's last position report, the reliability-protocol session
/// state that must move with it so faults replay identically across a
/// shard crossing (DESIGN.md §9), and the ids of the alarms already fired
/// for it. Counted on every crossing, never materialized on the
/// simulation hot path (handoff_message_size).
struct ShardHandoffMsg {
  alarms::SubscriberId subscriber = 0;
  geo::Point position;
  double time_s = 0.0;
  std::uint32_t uplink_seq = 0;
  std::uint32_t downlink_seq = 0;
  std::uint8_t leased = 0;  ///< 1 while a downlink push awaits its ACK
  std::vector<alarms::AlarmId> spent;
};

/// Grant-invalidation push (dynamics tier, DESIGN.md §8): tells a client
/// that an alarm installed after its grant was issued may violate the
/// grant. `action` selects revoke (rect / safe-period grants), shrink
/// (pyramid grants; `region` is the unsafe mask) or alarm-add (client-side
/// evaluation; `region` + `message` describe the new alarm).
struct InvalidationMsg {
  std::uint8_t action = 0;  ///< dynamics::InvalidationAction
  /// Per-session downlink sequence number (DESIGN.md §9): pushes are
  /// leased — retransmitted until ACKed — so the client needs it to
  /// suppress duplicates and restore the order of reordered copies.
  std::uint32_t seq = 0;
  alarms::AlarmId alarm = 0;
  geo::Rect region{geo::Point{}, geo::Point{}};
  std::string message;  ///< alarm content; alarm-add pushes only
};

/// Reliability-protocol acknowledgement (either direction): confirms
/// receipt of the message carrying `seq` for the given session.
struct AckMsg {
  alarms::SubscriberId subscriber = 0;
  std::uint32_t seq = 0;
};

/// Periodic shard checkpoint (failover tier, DESIGN.md §10): one shard's
/// durable state as of `tick` — the installed alarm replicas with their
/// install ticks, the removal graveyard with alarm lifetimes, the spent
/// (alarm, subscriber) trigger history, and the outstanding-grant table of
/// the invalidation protocol. Recovery decodes exactly these bytes, so the
/// format is load-bearing, not an estimate.
struct ShardCheckpointMsg {
  struct AlarmRec {
    alarms::SpatialAlarm alarm;
    std::uint64_t installed_at = 0;  ///< 0 = loaded at run start
  };
  struct TombRec {
    alarms::SpatialAlarm alarm;
    std::uint64_t installed_at = 0;
    std::uint64_t removed_at = 0;
  };
  struct SpentRec {
    alarms::AlarmId alarm = 0;
    alarms::SubscriberId subscriber = 0;
  };
  struct GrantRec {
    alarms::SubscriberId subscriber = 0;
    std::uint8_t kind = 0;  ///< dynamics::GrantKind
    geo::Rect bounds{geo::Point{}, geo::Point{}};
  };
  std::uint32_t shard = 0;
  std::uint64_t tick = 0;
  std::vector<AlarmRec> alarms;     ///< store slot order
  std::vector<TombRec> graveyard;   ///< removal order
  std::vector<SpentRec> spent;      ///< sorted (alarm, subscriber)
  std::vector<GrantRec> grants;     ///< sorted by subscriber
};

/// One append-only journal record (failover tier, DESIGN.md §10): a
/// post-checkpoint durable mutation of one shard. Install records carry
/// the full alarm (the store must be reconstructible from checkpoint +
/// journal alone); remove and spent records carry only ids.
struct JournalRecordMsg {
  enum class Kind : std::uint8_t {
    kInstall = 0,  ///< online alarm install (churn)
    kRemove = 1,   ///< online alarm removal (churn / TTL expiry)
    kSpent = 2,    ///< (alarm, subscriber) fired or handed off here
  };
  Kind kind = Kind::kInstall;
  std::uint64_t tick = 0;
  alarms::SpatialAlarm alarm;           ///< kInstall only
  alarms::AlarmId alarm_id = 0;         ///< kRemove / kSpent
  alarms::SubscriberId subscriber = 0;  ///< kSpent only
};

// One generic entry point per direction, instantiated for exactly the
// eleven message structs above, one per MessageType. encode returns the
// full message bytes (type byte included); decode<M> checks the type byte
// and throws PreconditionError on malformed input; encoded_size is the
// exact size encode would produce, for the accounting paths that do not
// materialize bytes (hot simulation loops).
template <class M>
std::vector<std::uint8_t> encode(const M& m);
template <class M>
M decode(std::span<const std::uint8_t> bytes);
template <class M>
std::size_t encoded_size(const M& m);

// Variable-size messages, sized from their variable part alone so hot
// paths need not build them. The fixed part comes from the field list.

/// Size of a pyramid safe-region message for a bitmap of the given bit
/// count.
std::size_t pyramid_message_size(std::size_t bit_count);

/// Size of an OPT alarm push carrying n alarms whose alert messages total
/// the given byte count.
std::size_t alarm_push_size(std::size_t alarm_count,
                            std::size_t total_message_bytes);

/// Size of a trigger notice for an alert message of the given length.
std::size_t trigger_notice_size(std::size_t message_bytes);

/// Size of an invalidation push for an alarm message of the given length
/// (zero for revoke/shrink pushes, which carry no alert content).
std::size_t invalidation_message_size(std::size_t message_bytes);

/// Size of a session handoff carrying `spent_alarms` fired-alarm ids.
std::size_t handoff_message_size(std::size_t spent_alarms);

}  // namespace salarm::wire
